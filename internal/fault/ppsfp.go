package fault

// The PPSFP (parallel-pattern single-fault propagation) engine: the
// production fault-simulation path of the flow. Three stacked wins over the
// serial simulator:
//
//  1. Word-parallel good machine. Patterns are cut into 64-lane blocks and
//     the fault-free machine is evaluated exactly once per block
//     (sim.PSim.CaptureBlock), retaining every node's word.
//  2. Event-driven fault propagation. Each fault re-evaluates only the
//     gates its effect actually reaches (sim.ConeSim.Propagate): a gate is
//     scheduled only when one of its fanins' faulty word differs from the
//     good word, and everything else is read from the good machine — the
//     per-fault cost is proportional to the disturbed part of the cone, not
//     the circuit or even the whole cone.
//  3. Fault-parallel fan-out with single-pass multi-observability. The
//     (typically collapsed) fault list is claimed in fixed-size batches
//     from one shared cursor by an internal/pool worker set, so skewed
//     fault costs still balance, with position-indexed results; each
//     fault's faulty captures are computed once and every Observe predicate
//     is evaluated against the same difference words, so "baseline vs
//     hybrid" coverage costs one simulation, not two. A fault is dropped —
//     its remaining pattern blocks skipped — as soon as every predicate has
//     detected it.
//
// The contract is exact equivalence with the reference simulator: for every
// predicate j, the returned Result j (Detected and per-fault first
// detecting pattern) is byte-identical to Simulate(c, loads, pis, faults,
// preds[j]), at any worker count. TestPPSFPMatchesSerial locks this across
// circuits × predicates × worker counts under -race.

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"

	"xhybrid/internal/logic"
	"xhybrid/internal/netlist"
	"xhybrid/internal/obs"
	"xhybrid/internal/pool"
	"xhybrid/internal/sim"
)

// claimBatch is how many consecutive faults a worker claims from the shared
// cursor at a time: large enough that claiming costs nothing next to
// simulating, small enough that the skewed tail still spreads over every
// worker.
const claimBatch = 32

// PPSFPOptions carries the engine's run knobs. The zero value runs on all
// CPUs with no observation or progress reporting.
type PPSFPOptions struct {
	// Workers bounds the fault-parallel fan-out (0 = all CPUs). Results
	// are byte-identical for any worker count.
	Workers int
	// Obs receives the engine's counters (fault.ppsfp.*): faults and
	// blocks simulated, faults activated (forced word differs from the
	// good word in some block), gate evaluations performed, and per-block
	// fault-drop counts.
	Obs *obs.Recorder
	// OnProgress, when set, is called as batches of faults complete
	// simulation — once per batch that crosses a multiple of
	// ProgressEvery completions, and once at the end with done == total. It may be called concurrently from several workers
	// and must be safe for that; done values are monotonic per call site
	// but may arrive out of order.
	OnProgress func(done, total int)
	// ProgressEvery is the completion granularity of OnProgress
	// (default: total/32, at least 1).
	ProgressEvery int
}

// SimulatePPSFP runs parallel-pattern single-fault propagation over the
// fault list and returns one Result per observability predicate, each
// exactly equal — Detected count and per-fault first detecting pattern — to
// a serial Simulate run under that predicate alone. A nil predicate means
// full observability. Canceling ctx aborts between fault batches with the
// context's error.
func SimulatePPSFP(ctx context.Context, c *netlist.Circuit, loads, pis []logic.Vector, faults []Def, preds []Observe, opt PPSFPOptions) ([]*Result, error) {
	if len(loads) != len(pis) {
		return nil, fmt.Errorf("fault: %d loads but %d pi vectors", len(loads), len(pis))
	}
	if len(preds) == 0 {
		return nil, fmt.Errorf("fault: no observability predicates")
	}
	for _, f := range faults {
		if f.Node < 0 || f.Node >= c.NumGates() {
			return nil, fmt.Errorf("fault: node %d out of range [0, %d)", f.Node, c.NumGates())
		}
	}
	np := len(preds)
	results := make([]*Result, np)
	for j := range results {
		results[j] = &Result{Total: len(faults), DetectedBy: make([]int, len(faults))}
		for i := range results[j].DetectedBy {
			results[j].DetectedBy[i] = -1
		}
	}
	nb := (len(loads) + 63) / 64
	if nb == 0 || len(faults) == 0 {
		return results, ctx.Err()
	}

	p := pool.New(opt.Workers)
	defer p.Close()

	// Phase 1: the good machine, once per 64-pattern block, fanned out
	// position-indexed so the retained words are worker-count independent.
	blocks := make([]*sim.Block, nb)
	errs := make([]error, p.Workers())
	p.Chunks(nb, func(ci, lo, hi int) {
		ps := sim.NewParallel(c)
		for b := lo; b < hi; b++ {
			if err := ctx.Err(); err != nil {
				errs[ci] = err
				return
			}
			base := b * 64
			top := base + 64
			if top > len(loads) {
				top = len(loads)
			}
			blk, err := ps.CaptureBlock(loads[base:top], pis[base:top])
			if err != nil {
				errs[ci] = err
				return
			}
			blocks[b] = blk
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Phase 2: the workers claim fixed-size batches of faults from one
	// shared cursor until the list is exhausted. Fault cost is heavily
	// skewed (low node IDs own the big fanout cones), so dynamic claiming
	// keeps every worker busy where a static split would leave one idle.
	// Every fault's lifecycle — per-block propagation, per-predicate first
	// detection, drop decision — is independent of every other fault's,
	// and all writes are position-indexed by fault, so the assembled
	// results are byte-identical at any worker count.
	ix := sim.NewConeIndex(c)
	type workerStats struct {
		activated, gateEvals int64
		droppedAt            []int64
	}
	stats := make([]workerStats, p.Workers())
	var next, done atomic.Int64
	every := opt.ProgressEvery
	if every <= 0 {
		every = len(faults) / 32
		if every < 1 {
			every = 1
		}
	}
	total := len(faults)
	p.Chunks(p.Workers(), func(w, _, _ int) {
		cs := ix.NewSim()
		st := &stats[w]
		st.droppedAt = make([]int64, nb)
		best := make([]int, np)
		pending := make([]bool, np)
		for {
			if ctx.Err() != nil {
				return
			}
			lo := int(next.Add(claimBatch)) - claimBatch
			if lo >= total {
				return
			}
			hi := min(lo+claimBatch, total)
			for fi := lo; fi < hi; fi++ {
				f := sim.Fault{Node: faults[fi].Node, StuckAt: faults[fi].SA}
				npending := np
				for j := range pending {
					pending[j] = true
				}
				activated := false
				for b, blk := range blocks {
					base := b * 64
					for j := range best {
						best[j] = 64
					}
					evals, act := cs.Propagate(blk, f, func(cell int, lanes uint64) {
						for j := 0; j < np; j++ {
							if !pending[j] {
								continue
							}
							// Only lanes earlier than the best detection so
							// far can improve it; a nil predicate takes the
							// lowest lane outright.
							m := lanes
							if best[j] < 64 {
								m &= 1<<uint(best[j]) - 1
							}
							if m == 0 {
								continue
							}
							if preds[j] == nil {
								best[j] = bits.TrailingZeros64(m)
								continue
							}
							for ; m != 0; m &= m - 1 {
								k := bits.TrailingZeros64(m)
								if preds[j](base+k, cell) {
									best[j] = k
									break
								}
							}
						}
					})
					st.gateEvals += int64(evals)
					activated = activated || act
					for j := 0; j < np; j++ {
						if pending[j] && best[j] < 64 {
							results[j].DetectedBy[fi] = base + best[j]
							pending[j] = false
							npending--
						}
					}
					if npending == 0 {
						st.droppedAt[b]++
						break
					}
				}
				if activated {
					st.activated++
				}
			}
			n := int64(hi - lo)
			if d := int(done.Add(n)); opt.OnProgress != nil && (d/every != (d-int(n))/every || d == total) {
				opt.OnProgress(d, total)
			}
		}
	})
	// A cancellation that lands mid-batch lets the batch finish; report it
	// all the same.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	for j := range results {
		det := 0
		for _, by := range results[j].DetectedBy {
			if by >= 0 {
				det++
			}
		}
		results[j].Detected = det
	}

	// Counters reduce position-independently (integer sums of per-fault
	// quantities), so the observability stream is as deterministic as the
	// results.
	rec := opt.Obs
	var activated, gateEvals int64
	droppedAt := make([]int64, nb)
	for i := range stats {
		activated += stats[i].activated
		gateEvals += stats[i].gateEvals
		for b, n := range stats[i].droppedAt {
			droppedAt[b] += n
		}
	}
	rec.Add("fault.ppsfp.faults", int64(len(faults)))
	rec.Add("fault.ppsfp.blocks", int64(nb))
	rec.Add("fault.ppsfp.faults.activated", activated)
	rec.Add("fault.ppsfp.gates.evaluated", gateEvals)
	for b, n := range droppedAt {
		if n > 0 {
			rec.Add(fmt.Sprintf("fault.ppsfp.dropped.block%03d", b), n)
		}
	}
	return results, nil
}
