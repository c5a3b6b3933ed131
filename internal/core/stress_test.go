package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"xhybrid/internal/gf2"
	"xhybrid/internal/misr"
	"xhybrid/internal/obs"
	"xhybrid/internal/workload"
	"xhybrid/internal/xcancel"
)

// TestConcurrentInterningConsistency hammers one shared evaluator — the
// striped state interner plus every once-guarded memo — from many
// goroutines at once and then audits the wreckage: every intern call is
// accounted for as exactly one hit or miss, the miss count equals the
// number of states that exist, no content was interned twice across
// stripes, and every filled stat matches a serial recomputation. Run under
// -race (CI does) this is the engine's concurrency-safety proof.
func TestConcurrentInterningConsistency(t *testing.T) {
	prof := workload.Scaled(workload.CKTB(), 16)
	m, err := prof.Generate()
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	params := Params{
		Geom:    prof.Geometry(),
		Cancel:  xcancel.Config{MISR: misr.MustStandard(32), Q: 7},
		Obs:     rec,
		Workers: 4,
	}
	e := newEvaluator(context.Background(), m, params)
	defer e.close()

	patterns := m.Patterns()
	cells := m.XCells()
	// A shared pool of contents: every goroutine interns its own clone of
	// each, so dedup across goroutines (not pointer identity) is what keeps
	// the state count down.
	r := rand.New(rand.NewSource(42))
	vecs := make([]gf2.Vec, 48)
	for i := range vecs {
		v := gf2.NewVec(patterns)
		for j := 0; j < patterns; j++ {
			if r.Intn(3) != 0 {
				v.Set(j)
			}
		}
		vecs[i] = v
	}
	full := gf2.NewVec(patterns)
	for j := 0; j < patterns; j++ {
		full.Set(j)
	}

	const goroutines = 16
	calls := make([]int64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var n int64
			parent := e.stateFor(full.Clone())
			n++
			parent.ensureCells(e, nil)
			parent.ensureStats(e, nil)
			for i, v := range vecs {
				st := e.stateFor(v.Clone())
				n++
				st.ensureStats(e, nil)
				if (i+g)%3 == 0 {
					st.ensureCells(e, nil)
					st.ensureGroups(e)
				}
				if (i+g)%4 == 0 {
					st.ensureCands(e, 32)
				}
			}
			// Overlapping split fans: goroutines g and g+9 walk the same
			// cells, so split sides race their pair scans and Onces.
			for i := g; i < len(cells); i += 9 {
				xs, rs := e.splitStates(parent, cells[i].Cell)
				n += 2
				if xs.size+rs.size != parent.size {
					t.Errorf("split of cell %d lost patterns: %d + %d != %d",
						cells[i].Cell, xs.size, rs.size, parent.size)
				}
			}
			calls[g] = n
		}(g)
	}
	wg.Wait()

	var total int64
	for _, c := range calls {
		total += c
	}
	snap := rec.Snapshot()
	hits := snap.CounterValue("core.state.cache.hits")
	misses := snap.CounterValue("core.state.cache.misses")
	if hits+misses != total {
		t.Errorf("state cache hits %d + misses %d != %d intern calls", hits, misses, total)
	}
	states := e.internedStates()
	if int64(len(states)) != misses {
		t.Errorf("%d interned states but %d cache misses (must be 1:1)", len(states), misses)
	}
	uniq := gf2.NewVecSet()
	for _, st := range states {
		if _, existed := uniq.Add(st.part); existed {
			t.Fatal("one content interned twice across stripes")
		}
		if st.size != st.part.PopCount() {
			t.Errorf("state size %d != popcount %d", st.size, st.part.PopCount())
		}
	}
	// Every filled stat must match a from-scratch serial scan: concurrent
	// fills may race, but both racers compute the same integers, so the
	// committed values are exact.
	audited := 0
	for _, st := range states {
		if !st.statsReady.Load() {
			continue
		}
		wantX := 0
		if st.size > 0 {
			for _, c := range cells {
				if c.Patterns.PopCountAnd(st.part) == st.size {
					wantX += st.size
				}
			}
		}
		if st.maskedX != wantX {
			t.Errorf("maskedX %d != serial recompute %d", st.maskedX, wantX)
		}
		audited++
	}
	if audited == 0 {
		t.Fatal("stress run filled no stats; the test exercised nothing")
	}
}

// TestGreedyPlanIdenticalUnderStress pins the tentpole guarantee at the Run
// level: with the interner striped and the memos once-guarded, a fully
// parallel greedy run produces a byte-identical result to the serial one.
// (TestRunDeterministicAcrossWorkers covers every strategy on small maps;
// this one runs the greedy selector on a scaled industrial profile, where
// candidate scoring actually fans out.)
func TestGreedyPlanIdenticalUnderStress(t *testing.T) {
	prof := workload.Scaled(workload.CKTB(), 16)
	m, err := prof.Generate()
	if err != nil {
		t.Fatal(err)
	}
	params := Params{
		Geom:     prof.Geometry(),
		Cancel:   xcancel.Config{MISR: misr.MustStandard(32), Q: 7},
		Strategy: StrategyGreedyCost,
	}
	params.Workers = 1
	serial, err := Run(m, params)
	if err != nil {
		t.Fatal(err)
	}
	params.Workers = 8
	parallel, err := Run(m, params)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("workers=8 plan differs from workers=1:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}
