package main

import (
	"math"
	"slices"
	"testing"
	"time"

	"xhybrid"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

// TestSelfTimeAccounting checks that layer self times plus the op's
// remainder add up to the op's duration, with overlapping children counted
// once.
func TestSelfTimeAccounting(t *testing.T) {
	tr := newTracer()
	at := func(msec int) time.Time { return tr.t0.Add(time.Duration(msec) * time.Millisecond) }
	root := tr.add("a", opSpan, 0, at(0), at(100), false)
	stage := tr.add("a", "flow.partition", root, at(10), at(60), false)
	tr.derive("a", "core.run", stage, 30*time.Millisecond)
	tr.add("a", "flow.replay", root, at(50), at(90), false) // overlaps the partition stage
	tr.add(setupOp, "workload.generate", 0, at(0), at(300), false)

	got := tr.selfPerOp(1)
	want := map[string]float64{
		"trace.op_ms":        100,
		"trace.remainder_ms": 20, // 0-10 and 90-100
		"flow.partition_ms":  20, // 50 ms minus its 30 ms core.run child
		"core.run_ms":        30,
		"flow.replay_ms":     40,
		// Set-up spans are divided among the set-ups, not the ops.
		"workload.generate_ms": 300.0 / setupReps,
	}
	for name, v := range want {
		if math.Abs(got[name]-v) > 1e-6 {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
}

// TestCalmSteps checks that the timing metrics come from the steps with at
// most the median steal, and from every step when steal is unknown or even.
func TestCalmSteps(t *testing.T) {
	w := &window{lat: []float64{10, 11, 30, 31, 20, 12}}
	w.steps = []stepStats{
		{from: 0, to: 2, busy: 21 * time.Millisecond, steal: 0.02},
		{from: 2, to: 4, busy: 61 * time.Millisecond, steal: 0.30},
		{from: 4, to: 5, busy: 20 * time.Millisecond, steal: 0.20},
		{from: 5, to: 6, busy: 12 * time.Millisecond, steal: 0.01},
	}
	got := w.timing(calm(w.steps))
	if want := []float64{10, 11, 12}; !slices.Equal(got.lat, want) || got.ops != 3 || got.busy != 33*time.Millisecond {
		t.Errorf("calm timing = %+v, want latencies %v over 3 ops and 33ms", got, want)
	}
	for i := range w.steps {
		w.steps[i].steal = 0.1
	}
	if n := len(calm(w.steps)); n != 4 {
		t.Errorf("even steal kept %d of 4 steps", n)
	}
	w.steps[2].steal = -1
	if n := len(calm(w.steps)); n != 4 {
		t.Errorf("unknown steal kept %d of 4 steps", n)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(tr.opID("x"), opSpan, 0)
	tr.end(id)
	tr.derive("x", "core.run", id, time.Second)
	if id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
}

func TestCheckPlan(t *testing.T) {
	x := xhybrid.PaperExample()
	p, err := xhybrid.Partition(x, xhybrid.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPlan(x, p); err != nil {
		t.Fatalf("library plan rejected: %v", err)
	}
	for name, corrupt := range map[string]func(*xhybrid.Plan){
		"residual": func(p *xhybrid.Plan) { p.ResidualX++ },
		"bits":     func(p *xhybrid.Plan) { p.TotalBits-- },
		"tiling":   func(p *xhybrid.Plan) { p.Partitions[0].Patterns = p.Partitions[0].Patterns[1:] },
		"mask": func(p *xhybrid.Plan) {
			// Cell 1 (chain 1, position 2) never captures an X.
			p.Partitions[0].MaskedCells = append(p.Partitions[0].MaskedCells, 1)
			p.Partitions[0].MaskedX += len(p.Partitions[0].Patterns)
		},
	} {
		bad, _ := xhybrid.Partition(x, xhybrid.Options{})
		corrupt(bad)
		if err := checkPlan(x, bad); err == nil {
			t.Errorf("%s corruption passed the check", name)
		}
	}
}
