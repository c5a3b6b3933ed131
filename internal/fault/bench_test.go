package fault

import (
	"context"
	"testing"

	"xhybrid/internal/atpg"
	"xhybrid/internal/netlist"
)

// BenchmarkFaultSim is the CI-gated PPSFP benchmark: a flow-shaped workload
// (1024-cell circuit, 128 patterns, collapsed 200-fault sample, dual
// observability) pinned to one worker so the number is a kernel measurement,
// not a scheduling one. The bench-regress CI job fails a >20% median
// regression against the merge base.
func BenchmarkFaultSim(b *testing.B) {
	c, err := netlist.Generate(netlist.GenConfig{
		Name:      "bench",
		ScanCells: 1024,
		PIs:       16,
		XClusters: 20,
		XFanout:   16,
		Seed:      42,
	})
	if err != nil {
		b.Fatal(err)
	}
	st := atpg.GenerateStimuli(128, len(c.ScanCells), len(c.PIs), 7)
	reps := Representatives(Collapse(c, AllFaults(c)))
	faults := Sample(reps, 200, 1)
	preds := []Observe{nil, func(p, cell int) bool { return cell%2 == 0 }}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SimulatePPSFP(ctx, c, st.Loads, st.PIs, faults, preds, PPSFPOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res[0].Detected == 0 {
			b.Fatal("no detections")
		}
	}
}

// BenchmarkFaultSimFull is the CI-gated scheduling benchmark: the full
// collapsed fault list of a 4096-cell circuit, in node order, at two
// workers. The costly faults (the big fanout cones of the low node IDs)
// cluster at the front of the list, so a static split of the list would
// leave one worker idle for most of the run; BenchmarkFaultSim's random
// one-worker sample cannot see that. Run it with -cpu 2.
func BenchmarkFaultSimFull(b *testing.B) {
	c, err := netlist.Generate(netlist.GenConfig{
		Name:      "bench-full",
		ScanCells: 4096,
		PIs:       16,
		XClusters: 64,
		XFanout:   16,
		Seed:      42,
	})
	if err != nil {
		b.Fatal(err)
	}
	st := atpg.GenerateStimuli(256, len(c.ScanCells), len(c.PIs), 7)
	faults := Representatives(Collapse(c, AllFaults(c)))
	preds := []Observe{nil, func(p, cell int) bool { return cell%2 == 0 }}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SimulatePPSFP(ctx, c, st.Loads, st.PIs, faults, preds, PPSFPOptions{Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		if res[0].Detected == 0 {
			b.Fatal("no detections")
		}
	}
}
