package main

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"time"

	"xhybrid"
	"xhybrid/internal/obs"
	"xhybrid/internal/workload"
)

// table1Strategies are the planners plan-table1 runs on every map: the
// paper's Algorithm 1 (the default) and the greedy cost search.
var table1Strategies = []string{"paper", "greedy-cost"}

// table1Workers is every plan's worker count. One worker keeps a plan on
// one CPU: on a shared host, a plan split over both CPUs waits at every
// join for whichever CPU the hypervisor took away, which made its wall
// time swing about twice as much with other guests' load.
const table1Workers = 1

// planTable1 plans the paper's Table 1 inputs — full-scale CKT-A/B/C
// X-maps, 3000 patterns each — through xhybrid.PartitionCtx. One op plans
// all three maps under both strategies (six plans).
type planTable1 struct {
	maps []*xhybrid.XLocations
	// plans holds the window's first op's plans, in map-major order.
	plans []*xhybrid.Plan
}

// setup generates the three maps. Seed 1 gives the calibrated profiles the
// documented Table 1 comes from; seed n shifts every profile seed by n-1.
func (b *planTable1) setup(ctx context.Context, seed int64, tr *tracer) error {
	b.maps = nil // let the previous set-up's maps be collected
	for _, p := range workload.Profiles() {
		if err := ctx.Err(); err != nil {
			return err
		}
		id := tr.begin(setupOp, "workload.generate", 0)
		x, err := xhybrid.Workload(p.Name, p.Seed+seed-1)
		tr.end(id)
		if err != nil {
			return err
		}
		b.maps = append(b.maps, x)
	}
	return nil
}

func (b *planTable1) measure(ctx context.Context, budget time.Duration, tr *tracer) (*window, error) {
	w := &window{}
	var rec *obs.Recorder
	var alloc0 uint64
	if tr != nil {
		rec = xhybrid.NewStats()
		alloc0 = totalAlloc()
	}
	b.plans = nil
	err := measureLoop(ctx, budget, w, func() (time.Duration, error) {
		op := tr.opID("table1")
		plans := make([]*xhybrid.Plan, 0, len(b.maps)*len(table1Strategies))
		t0 := time.Now()
		root := tr.begin(op, opSpan, 0)
		for _, x := range b.maps {
			for _, s := range table1Strategies {
				before := spanTotal(rec, "core.run")
				// The facade call's self time is EvaluateCtx's baseline
				// accounting around the partitioner (core.run).
				id := tr.begin(op, "core.baselines", root)
				p, err := xhybrid.PartitionCtx(ctx, x, xhybrid.Options{Strategy: s, Stats: rec, Workers: table1Workers})
				tr.end(id)
				tr.derive(op, "core.run", id, spanTotal(rec, "core.run")-before)
				if err != nil {
					fmt.Fprintf(os.Stderr, "xbench: plan-table1 %s: %v\n", s, err)
				}
				plans = append(plans, p)
			}
		}
		tr.end(root)
		d := time.Since(t0)
		w.addOp(d)

		var bits int64
		var tt float64
		for i, p := range plans {
			w.attempted++
			switch {
			case p == nil:
				w.failed++
				continue
			case b.plans != nil && !reflect.DeepEqual(p, b.plans[i]):
				return d, fmt.Errorf("%w: plan %d differs between ops", errNondeterministic, i)
			}
			bits += int64(p.TotalBits)
			tt += p.TestTimeHybrid
		}
		if err := w.setModelled(b.plans == nil, bits, tt/float64(len(plans))); err != nil {
			return d, err
		}
		if b.plans == nil {
			b.plans = plans
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		w.layers = coreLayers(rec.Snapshot(), w.ops)
		w.layers["go.alloc_mb_per_op"] = allocMBPerOp(alloc0, w.ops)
	}
	return w, nil
}

// verify checks the first op's plans from the outside; later ops were
// compared with them as they ran, so a failed plan fails in every op.
func (b *planTable1) verify(_ context.Context, w *window) (int, error) {
	failed := 0
	for i, p := range b.plans {
		if p == nil {
			continue // already counted
		}
		if err := checkPlan(b.maps[i/len(table1Strategies)], p); err != nil {
			fmt.Fprintf(os.Stderr, "xbench: plan-table1 plan %d: %v\n", i, err)
			failed += w.ops
		}
	}
	return failed, nil
}
