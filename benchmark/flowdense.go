package main

import (
	"context"
	"fmt"
	"maps"
	"os"
	"strings"
	"sync"
	"time"

	"xhybrid"
	"xhybrid/internal/obs"
)

// flowStageSpans names each flow stage's span after the layer it runs.
var flowStageSpans = map[string]string{
	"generate":  "netlist.generate",
	"atpg":      "atpg.stimuli",
	"simulate":  "sim.simulate",
	"extract":   "xmap.extract",
	"partition": "flow.partition",
	"replay":    "flow.replay",
	"faultsim":  "fault.faultsim",
}

// denseCircuits is how many circuits one flow-dense op runs. Seed n takes
// circuits 2(n-1)+1 and 2n, so seed 1 starts with the documented circuit.
// The greedy plan's cost differs between circuits (most need 4-5
// partitions, a few many more, and their flows run seconds longer), so an
// op of one circuit made a run's figures depend on which circuit its seed
// drew.
const denseCircuits = 2

// documentedDenseBits is the control-bit total of the documented dense flow
// (docs/FLOW.md): circuit 1, which seed 1 runs first.
const documentedDenseBits = 74019643

// denseSpec is the documented 102400-cell dense flow (docs/FLOW.md): 512
// chains, 400 X-clusters of fanout 256, one enable tap, 256 patterns,
// greedy-cost, the full collapsed fault list. The circuit seed is also the
// stimulus seed.
func denseSpec(circuit int64) xhybrid.FlowSpec {
	return xhybrid.FlowSpec{
		Cells: 102400, Chains: 512, XClusters: 400, XFanout: 256, EnableTaps: 1,
		Patterns: 256, Strategy: "greedy-cost", FaultFull: true, FaultSeed: 1,
		CircuitSeed: circuit, StimSeed: uint64(circuit),
	}
}

// warmupSpec is the documented small flow (1024 cells), run as set-up so
// lazy initialisation in every layer happens before timing.
func warmupSpec(seed int64) xhybrid.FlowSpec {
	return xhybrid.FlowSpec{
		Cells: 1024, Chains: 32, XClusters: 24, Patterns: 128, MISRSize: 16,
		FaultSample: 200, FaultSeed: 1, CircuitSeed: seed, StimSeed: uint64(seed),
	}
}

// flowDense runs xhybrid.RunFlowCtx on the dense spec: spec in, coverage
// verdict out. One op runs one flow on each of the seed's circuits, in
// turn.
type flowDense struct {
	specs   []xhybrid.FlowSpec
	reports []*xhybrid.FlowReport
	// first holds the window's first op's reports, in circuit order.
	first []*xhybrid.FlowReport
}

func (b *flowDense) setup(ctx context.Context, seed int64, tr *tracer) error {
	b.specs = b.specs[:0]
	for j := int64(1); j <= denseCircuits; j++ {
		b.specs = append(b.specs, denseSpec(denseCircuits*(seed-1)+j))
	}
	id := tr.begin(setupOp, "flow.warmup", 0)
	rep, err := xhybrid.RunFlowCtx(ctx, warmupSpec(seed), xhybrid.FlowRunConfig{})
	tr.end(id)
	if err != nil {
		return err
	}
	if !rep.Preserved {
		return fmt.Errorf("warm-up flow: coverage not preserved")
	}
	return nil
}

// stageMark is one OnStage call: the stage that started and when.
type stageMark struct {
	name string
	at   time.Time
}

func (b *flowDense) measure(ctx context.Context, budget time.Duration, tr *tracer) (*window, error) {
	w := &window{}
	var rec *obs.Recorder
	var alloc0 uint64
	if tr != nil {
		rec = xhybrid.NewStats()
		alloc0 = totalAlloc()
	}
	b.reports, b.first = nil, nil
	err := measureLoop(ctx, budget, w, func() (time.Duration, error) {
		op := tr.opID("flows")
		t0 := time.Now()
		root := tr.begin(op, opSpan, 0)
		var reps []*xhybrid.FlowReport
		var bits int64
		var tt float64
		for _, spec := range b.specs {
			w.attempted++
			rep, err := b.flow(ctx, spec, rec, tr, op, root)
			if err != nil {
				fmt.Fprintln(os.Stderr, "xbench: flow-dense:", err)
				w.failed++
				continue
			}
			reps = append(reps, rep)
			bits += int64(rep.TotalBits)
			tt += rep.Replay.NormalizedTime
		}
		tr.end(root)
		d := time.Since(t0)
		w.addOp(d)
		b.reports = append(b.reports, reps...)
		if len(reps) < len(b.specs) {
			return d, nil // a failed flow has no modelled metrics
		}
		if err := w.setModelled(b.first == nil, bits, tt/float64(len(reps))); err != nil {
			return d, err
		}
		if b.first == nil {
			b.first = reps
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		snap := rec.Snapshot()
		w.layers = coreLayers(snap, w.ops)
		maps.Copy(w.layers, flowLayers(snap, w.ops))
		w.layers["go.alloc_mb_per_op"] = allocMBPerOp(alloc0, w.ops)
	}
	return w, nil
}

// flow runs one spec. With a tracer it records a child span of the op's
// root per stage, each running from its OnStage call to the next (the last
// to the flow's return), and the partitioner's own time inside the
// partition stage.
func (b *flowDense) flow(ctx context.Context, spec xhybrid.FlowSpec, rec *obs.Recorder, tr *tracer, op string, root int) (*xhybrid.FlowReport, error) {
	var mu sync.Mutex
	var marks []stageMark
	cfg := xhybrid.FlowRunConfig{Obs: rec}
	if tr != nil {
		// Faultsim also reports "faultsim done/total" progress,
		// possibly from several workers; only stage names open spans.
		cfg.OnStage = func(name string) {
			if strings.Contains(name, " ") {
				return
			}
			now := time.Now()
			mu.Lock()
			marks = append(marks, stageMark{name, now})
			mu.Unlock()
		}
	}
	before := spanTotal(rec, "core.run")
	rep, err := xhybrid.RunFlowCtx(ctx, spec, cfg)
	end := time.Now()
	if tr == nil {
		return rep, err
	}
	coreRun := spanTotal(rec, "core.run") - before
	for i := len(marks) - 1; i >= 0; i-- {
		m := marks[i]
		name, ok := flowStageSpans[m.name]
		if !ok {
			name = "flow." + m.name
		}
		id := tr.add(op, name, root, m.at, end, false)
		if m.name == "partition" {
			tr.derive(op, "core.run", id, coreRun)
		}
		end = m.at
	}
	return rep, err
}

// verify checks every flow's verdict: coverage preserved, with the
// baseline detecting exactly the faults the hybrid detects. Circuit 1 must
// give the documented control-bit total.
func (b *flowDense) verify(_ context.Context, w *window) (int, error) {
	if b.specs[0].CircuitSeed == 1 && len(b.first) > 0 && b.first[0].TotalBits != documentedDenseBits {
		return 0, fmt.Errorf("%w: circuit 1 gives control_bits %d, documented %d",
			errNondeterministic, b.first[0].TotalBits, documentedDenseBits)
	}
	failed := 0
	for _, rep := range b.reports {
		c := rep.Coverage
		if !rep.Preserved || c == nil || c.Faults == 0 || c.BaselineDetected != c.HybridDetected || c.Baseline != c.Hybrid {
			fmt.Fprintf(os.Stderr, "xbench: flow-dense: coverage not preserved (%+v)\n", c)
			failed++
		}
	}
	return failed, nil
}
