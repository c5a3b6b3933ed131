package fault

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"xhybrid/internal/atpg"
	"xhybrid/internal/logic"
	"xhybrid/internal/netlist"
	"xhybrid/internal/obs"
)

// ppsfpPreds is the predicate matrix the equivalence property runs over:
// full observability, a cell-restricted mask, and a pattern×cell mix — the
// shapes measureCoverage's baseline/hybrid pair takes.
var ppsfpPreds = []struct {
	name string
	obs  Observe
}{
	{"full", nil},
	{"even-cells", func(p, cell int) bool { return cell%2 == 0 }},
	{"mixed", func(p, cell int) bool { return p%3 != 0 || cell%5 == 1 }},
}

// TestPPSFPMatchesSerial is the engine's correctness property: for every
// seeded circuit × observability predicate × worker count, the PPSFP Result
// — Detected and per-fault first detecting pattern — equals the serial
// reference simulator's, with every predicate evaluated in one PPSFP pass.
func TestPPSFPMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := mkCircuit(t, seed)
		// 90 patterns: two blocks, the second partial, so lane masking and
		// cross-block first-detection ordering are both exercised.
		st := atpg.GenerateStimuli(90, len(c.ScanCells), len(c.PIs), uint64(seed+100))
		faults := Sample(AllFaults(c), 80, seed)
		preds := make([]Observe, len(ppsfpPreds))
		serial := make([]*Result, len(ppsfpPreds))
		for j, p := range ppsfpPreds {
			preds[j] = p.obs
			ref, err := Simulate(c, st.Loads, st.PIs, faults, p.obs)
			if err != nil {
				t.Fatal(err)
			}
			serial[j] = ref
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := SimulatePPSFP(context.Background(), c, st.Loads, st.PIs, faults, preds,
				PPSFPOptions{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			for j, p := range ppsfpPreds {
				if got[j].Total != serial[j].Total || got[j].Detected != serial[j].Detected {
					t.Fatalf("seed %d workers %d pred %s: got %d/%d, serial %d/%d",
						seed, workers, p.name, got[j].Detected, got[j].Total, serial[j].Detected, serial[j].Total)
				}
				for fi := range faults {
					if got[j].DetectedBy[fi] != serial[j].DetectedBy[fi] {
						t.Fatalf("seed %d workers %d pred %s fault %v: first detection %d, serial %d",
							seed, workers, p.name, faults[fi], got[j].DetectedBy[fi], serial[j].DetectedBy[fi])
					}
				}
			}
		}
	}
}

func TestPPSFPValidation(t *testing.T) {
	c := mkCircuit(t, 6)
	ctx := context.Background()
	if _, err := SimulatePPSFP(ctx, c, make([]logic.Vector, 2), make([]logic.Vector, 3), nil, []Observe{nil}, PPSFPOptions{}); err == nil {
		t.Fatal("accepted mismatched stimuli")
	}
	st := atpg.GenerateStimuli(4, len(c.ScanCells), len(c.PIs), 1)
	if _, err := SimulatePPSFP(ctx, c, st.Loads, st.PIs, nil, nil, PPSFPOptions{}); err == nil {
		t.Fatal("accepted empty predicate list")
	}
	bad := []Def{{Node: c.NumGates(), SA: logic.One}}
	if _, err := SimulatePPSFP(ctx, c, st.Loads, st.PIs, bad, []Observe{nil}, PPSFPOptions{}); err == nil {
		t.Fatal("accepted out-of-range fault node")
	}
}

func TestPPSFPEmpty(t *testing.T) {
	c := mkCircuit(t, 7)
	res, err := SimulatePPSFP(context.Background(), c, nil, nil, Sample(AllFaults(c), 5, 1), []Observe{nil, nil}, PPSFPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Total != 5 || res[0].Detected != 0 {
		t.Fatalf("zero-pattern result: %+v", res[0])
	}
	for _, by := range res[0].DetectedBy {
		if by != -1 {
			t.Fatal("detection with no patterns")
		}
	}
}

func TestPPSFPCancel(t *testing.T) {
	c := mkCircuit(t, 8)
	st := atpg.GenerateStimuli(64, len(c.ScanCells), len(c.PIs), 3)
	faults := Sample(AllFaults(c), 40, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimulatePPSFP(ctx, c, st.Loads, st.PIs, faults, []Observe{nil}, PPSFPOptions{}); err == nil {
		t.Fatal("canceled context not reported")
	}
}

func TestPPSFPProgressAndCounters(t *testing.T) {
	c := mkCircuit(t, 9)
	st := atpg.GenerateStimuli(64, len(c.ScanCells), len(c.PIs), 5)
	faults := Sample(AllFaults(c), 32, 5)
	rec := obs.New()
	var mu sync.Mutex
	var last int
	calls := 0
	res, err := SimulatePPSFP(context.Background(), c, st.Loads, st.PIs, faults, []Observe{nil},
		PPSFPOptions{Workers: 2, Obs: rec, ProgressEvery: 4, OnProgress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if total != len(faults) || done < 1 || done > total {
				t.Errorf("progress out of range: %d/%d", done, total)
			}
			if done > last {
				last = done
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if last != len(faults) || calls == 0 {
		t.Fatalf("progress never reached total: last %d after %d calls", last, calls)
	}
	snap := rec.Snapshot()
	// Every detected fault was activated; no fault is counted twice.
	if got := snap.CounterValue("fault.ppsfp.faults.activated"); got < int64(res[0].Detected) || got > int64(len(faults)) {
		t.Fatalf("faults.activated = %d, want within [%d, %d]", got, res[0].Detected, len(faults))
	}
	if snap.CounterValue("fault.ppsfp.blocks") != 1 {
		t.Fatal("expected one 64-pattern block")
	}
	if snap.CounterValue("fault.ppsfp.gates.evaluated") <= 0 {
		t.Fatal("no gate evaluations counted")
	}
}

// The obs counters, like the results, must not depend on the worker count.
func TestPPSFPCountersDeterministic(t *testing.T) {
	c := mkCircuit(t, 10)
	st := atpg.GenerateStimuli(96, len(c.ScanCells), len(c.PIs), 9)
	faults := Sample(AllFaults(c), 48, 9)
	var want obs.Snapshot
	for i, workers := range []int{1, 4} {
		rec := obs.New()
		if _, err := SimulatePPSFP(context.Background(), c, st.Loads, st.PIs, faults, []Observe{nil, ppsfpPreds[1].obs},
			PPSFPOptions{Workers: workers, Obs: rec}); err != nil {
			t.Fatal(err)
		}
		snap := rec.Snapshot()
		if i == 0 {
			want = snap
			continue
		}
		for _, cs := range want.Counters {
			if got := snap.CounterValue(cs.Name); got != cs.Value {
				t.Fatalf("counter %s: %d at workers=4, %d at workers=1", cs.Name, got, cs.Value)
			}
		}
	}
}

// TestPPSFPScheduling feeds the engine the shape the flow does: the full
// collapsed fault list in node order, where the costly faults (the big
// fanout cones of the low node IDs) cluster at the front and span many
// claim batches. Results and counters must not depend on how the batches
// fell to the workers, and a cancellation landing mid-batch must still be
// reported.
func TestPPSFPScheduling(t *testing.T) {
	c, err := netlist.Generate(netlist.GenConfig{
		Name:      "sched",
		ScanCells: 256,
		PIs:       8,
		XClusters: 4,
		XFanout:   6,
		Seed:      12,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := atpg.GenerateStimuli(90, len(c.ScanCells), len(c.PIs), 21)
	faults := Representatives(Collapse(c, AllFaults(c)))
	for i := 1; i < len(faults); i++ {
		if faults[i].Node < faults[i-1].Node {
			t.Fatal("collapsed list is not in node order")
		}
	}
	if len(faults) < 8*claimBatch {
		t.Fatalf("%d faults: too few claim batches to exercise scheduling", len(faults))
	}
	preds := make([]Observe, len(ppsfpPreds))
	for j, p := range ppsfpPreds {
		preds[j] = p.obs
	}
	var want []*Result
	var wantSnap obs.Snapshot
	for _, workers := range []int{1, 2, 4, 8} {
		rec := obs.New()
		got, err := SimulatePPSFP(context.Background(), c, st.Loads, st.PIs, faults, preds,
			PPSFPOptions{Workers: workers, Obs: rec})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		snap := rec.Snapshot()
		if want == nil {
			want, wantSnap = got, snap
			if want[0].Detected == 0 {
				t.Fatal("no detections")
			}
			continue
		}
		for j, p := range ppsfpPreds {
			if !reflect.DeepEqual(got[j], want[j]) {
				t.Fatalf("workers %d pred %s: result differs from workers 1", workers, p.name)
			}
		}
		if len(snap.Counters) != len(wantSnap.Counters) {
			t.Fatalf("workers %d: %d counters, %d at workers 1", workers, len(snap.Counters), len(wantSnap.Counters))
		}
		for _, cs := range wantSnap.Counters {
			if got := snap.CounterValue(cs.Name); got != cs.Value {
				t.Fatalf("workers %d counter %s: %d, %d at workers 1", workers, cs.Name, got, cs.Value)
			}
		}
	}

	// Cancel from inside a predicate: the fault being simulated, and the
	// rest of its batch, finish, but the call must report the cancellation.
	for _, workers := range []int{1, 2, 4, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		cancelling := func(p, cell int) bool {
			if calls.Add(1) == 100 {
				cancel()
			}
			return true
		}
		res, err := SimulatePPSFP(ctx, c, st.Loads, st.PIs, faults, []Observe{cancelling},
			PPSFPOptions{Workers: workers})
		cancel()
		if err != context.Canceled || res != nil {
			t.Fatalf("workers %d: canceled mid-batch returned (%v, %v), want (nil, context.Canceled)", workers, res, err)
		}
	}
}
