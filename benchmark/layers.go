package main

import (
	"runtime"
	"strings"
	"time"

	"xhybrid/internal/obs"
)

// coreLayers derives the partitioning engine's per-layer metrics from the
// library's own recorder (xhybrid.Options.Stats, flow.RunConfig.Obs or the
// server's Config.Obs): core time and counters per op, and the ratios of
// useful outcomes to attempts.
func coreLayers(snap obs.Snapshot, ops int) map[string]float64 {
	c := func(name string) float64 { return float64(snap.CounterValue(name)) }
	perOp := func(v float64) float64 { return ratio(v, float64(ops)) }
	run, _ := snap.SpanByName("core.run")
	return map[string]float64{
		"core.run_ms":                  perOp(ms(run.Total)),
		"core.splits_scored":           perOp(c("core.splits.scored")),
		"core.maskedx_recomputes":      perOp(c("core.maskedx.recomputes")),
		"core.state_cache_hit_ratio":   ratio(c("core.state.cache.hits"), c("core.state.cache.hits")+c("core.state.cache.misses")),
		"core.score_delta_ratio":       ratio(c("core.score.delta"), c("core.score.delta")+c("core.score.full")),
		"core.rounds_accepted_ratio":   ratio(c("core.rounds.accepted"), c("core.rounds")),
		"core.cellindex_cells_scanned": perOp(c("core.cellindex.cells.scanned")),
		"correlation.cells_counted":    perOp(c("correlation.cells.counted")),
	}
}

// flowLayers derives the replay, X-canceling and fault-simulation counts
// per op from a flow run's recorder.
func flowLayers(snap obs.Snapshot, ops int) map[string]float64 {
	c := func(name string) float64 { return float64(snap.CounterValue(name)) }
	dropped := 0.0
	for _, ct := range snap.Counters {
		if strings.HasPrefix(ct.Name, "fault.ppsfp.dropped.") {
			dropped += float64(ct.Value)
		}
	}
	return map[string]float64{
		"flow.cycles_replayed":        ratio(c("flow.cycles.replayed"), float64(ops)),
		"xcancel.halts":               ratio(c("xcancel.halts"), float64(ops)),
		"fault.ppsfp_gates_evaluated": ratio(c("fault.ppsfp.gates.evaluated"), float64(ops)),
		"fault.ppsfp_gates_per_fault": ratio(c("fault.ppsfp.gates.evaluated"), c("fault.ppsfp.faults")),
		"fault.ppsfp_dropped_ratio":   ratio(dropped, c("fault.ppsfp.faults")),
	}
}

// spanTotal returns a recorder span's accumulated duration (0 when absent
// or when rec is nil).
func spanTotal(rec *obs.Recorder, name string) time.Duration {
	if rec == nil {
		return 0
	}
	s, _ := rec.Snapshot().SpanByName(name)
	return s.Total
}

// totalAlloc returns the bytes the Go heap has allocated so far.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// allocMBPerOp turns a TotalAlloc delta into MiB per op.
func allocMBPerOp(start uint64, ops int) float64 {
	return ratio(float64(totalAlloc()-start)/(1<<20), float64(ops))
}
