package core

import (
	"fmt"
	"testing"

	"xhybrid/internal/misr"
	"xhybrid/internal/scan"
	"xhybrid/internal/xcancel"
	"xhybrid/internal/xmap"
)

// retryMap builds a workload where Algorithm 1 stops prematurely: the
// *largest* equal-count group (6 cells, 50 X's each, mutually different
// pattern sets) yields a rejected split, while a smaller group (4 cells
// with one identical 40-pattern signature) yields an accepted one. The
// paper's procedure tries only the largest group and gives up; the retry
// extension walks on to the smaller group.
func retryMap() *xmap.XMap {
	m := xmap.New(100, 100)
	// Group A: cells 0..5, pattern windows [7i, 7i+50) — same count (50),
	// all distinct sets, heavy overlap, and no window is another's
	// complement, so a split on one masks only that one cell's X's.
	for i := 0; i < 6; i++ {
		for k := 0; k < 50; k++ {
			m.Add(7*i+k, i)
		}
	}
	// Group B: cells 20..23 share the exact signature {0..19} ∪ {55..74},
	// which straddles every group-A window.
	for _, c := range []int{20, 21, 22, 23} {
		for p := 0; p < 20; p++ {
			m.Add(p, c)
		}
		for p := 55; p < 75; p++ {
			m.Add(p, c)
		}
	}
	return m
}

func retryParams(s Strategy) Params {
	return Params{
		Geom:     scan.MustGeometry(10, 10),
		Cancel:   xcancel.Config{MISR: misr.MustStandard(10), Q: 1},
		Strategy: s,
	}
}

func TestPaperStopsWhereRetryContinues(t *testing.T) {
	m := retryMap()

	paper, err := Run(m, retryParams(StrategyPaper))
	if err != nil {
		t.Fatal(err)
	}
	// The paper heuristic tries the 6-cell group, the cost rises, it stops
	// with a single partition.
	if len(paper.Partitions) != 1 {
		t.Fatalf("paper partitions = %d, want 1", len(paper.Partitions))
	}
	if len(paper.Rounds) != 1 || paper.Rounds[0].Accepted {
		t.Fatalf("paper rounds = %+v, want one rejected attempt", paper.Rounds)
	}
	if paper.Rounds[0].GroupSize != 6 {
		t.Fatalf("paper tried group of %d, want 6", paper.Rounds[0].GroupSize)
	}

	retry, err := Run(m, retryParams(StrategyPaperRetry))
	if err != nil {
		t.Fatal(err)
	}
	if len(retry.Partitions) < 2 {
		t.Fatalf("retry partitions = %d, want >= 2", len(retry.Partitions))
	}
	if retry.TotalBits >= paper.TotalBits {
		t.Fatalf("retry total %d not below paper %d", retry.TotalBits, paper.TotalBits)
	}
	// The accepted split must come from the 4-cell group.
	foundB := false
	for _, r := range retry.Rounds {
		if r.Accepted && r.GroupSize == 4 {
			foundB = true
		}
	}
	if !foundB {
		t.Fatalf("retry never accepted the 4-cell group: %+v", retry.Rounds)
	}
	// The 4 group-B cells must be masked somewhere (their X's removed).
	if retry.MaskedX < 160 {
		t.Fatalf("retry masked %d X's, want >= 160", retry.MaskedX)
	}
}

func TestRetryNeverWorseThanPaper(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		m, geom := randMap(seed)
		pp := Params{Geom: geom, Cancel: xcancel.Config{MISR: misr.MustStandard(12), Q: 3}}
		paper, err := Run(m, pp)
		if err != nil {
			t.Fatal(err)
		}
		pr := pp
		pr.Strategy = StrategyPaperRetry
		retry, err := Run(m, pr)
		if err != nil {
			t.Fatal(err)
		}
		if retry.TotalBits > paper.TotalBits {
			t.Fatalf("seed %d: retry %d worse than paper %d", seed, retry.TotalBits, paper.TotalBits)
		}
	}
}

func TestRetryStrategyString(t *testing.T) {
	if StrategyPaperRetry.Name() != "paper-retry" {
		t.Fatal("name wrong")
	}
	if fmt.Sprintf("%s", StrategyPaperRetry) != "paper-retry" {
		t.Fatal("String wrong")
	}
}
