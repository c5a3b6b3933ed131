package core

import (
	"context"
	"fmt"
	"sort"

	"xhybrid/internal/gf2"
	"xhybrid/internal/xmap"
)

// RunClustered is an alternative to Algorithm 1's binary recursion: patterns
// are grouped directly by X-signature similarity. Each cluster maintains the
// *core* — the cells that are X under every member so far, exactly the cells
// its shared mask may cover — and each pattern greedily joins wherever the
// cost delta (mask-image price vs canceling bits saved) is best, or opens a
// new cluster. A final pass dissolves clusters whose mask no longer pays for
// itself into a single remainder partition.
//
// The paper's heuristic exploits inter-correlation through equal-count
// groups; this one consumes the signatures directly. On cleanly correlated
// workloads both find the same structure (see the clustering ablation); on
// messy overlap the one-pass greedy can trade slightly worse totals for a
// single pass over the patterns.
func RunClustered(m *xmap.XMap, params Params) (*Result, error) {
	return RunClusteredCtx(context.Background(), m, params)
}

// RunClusteredCtx is RunClustered under a context: the greedy join pass and
// the O(n²) merge hill-climb both poll ctx and abort with a wrapped context
// error, releasing the worker pool before returning.
func RunClusteredCtx(ctx context.Context, m *xmap.XMap, params Params) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if m.Cells() != params.Geom.Cells() {
		return nil, fmt.Errorf("%w: X-map has %d cells, geometry has %d", ErrGeometryMismatch, m.Cells(), params.Geom.Cells())
	}
	if m.Patterns() == 0 {
		return nil, ErrEmptyPatterns
	}
	defer params.Obs.Span("core.cluster")()
	e := newEvaluator(ctx, m, params)
	defer e.close()

	mSize, q := params.Cancel.MISR.Size, params.Cancel.Q
	cancelPerX := float64(mSize*q) / float64(mSize-q)

	type cluster struct {
		members []int
		core    []int // sorted cell ids X under every member
	}
	var clusters []cluster

	// Patterns in descending X count seed clusters with rich signatures.
	order := make([]int, m.Patterns())
	counts := m.PatternXCounts()
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return counts[order[a]] > counts[order[b]] })

	// maxClusters bounds the greedy phase; the merge pass below cleans up.
	const maxClusters = 32
	var rest []int
	for pi, p := range order {
		if pi&cancelCheckMask == 0 {
			if err := e.err(); err != nil {
				return nil, err
			}
		}
		sig := m.PatternCells(p)
		if len(sig) == 0 {
			// X-free patterns need no mask; keep them out of the clusters
			// so they cannot destroy a core.
			rest = append(rest, p)
			continue
		}
		// Join the cluster with the best cost delta, gated on genuine
		// similarity (the intersection must retain at least half the
		// core — otherwise a noisy pattern erodes it to nothing).
		bestDelta := 0.0
		bestIdx := -1
		for ci := range clusters {
			c := &clusters[ci]
			inter := intersectSorted(c.core, sig)
			if len(inter) == 0 || 2*len(inter) < len(c.core) {
				continue
			}
			n := len(c.members)
			delta := -cancelPerX * float64(len(inter)*(n+1)-len(c.core)*n)
			if bestIdx < 0 || delta < bestDelta {
				bestDelta = delta
				bestIdx = ci
			}
		}
		switch {
		case bestIdx >= 0:
			c := &clusters[bestIdx]
			c.core = intersectSorted(c.core, sig)
			c.members = append(c.members, p)
		case len(clusters) < maxClusters:
			clusters = append(clusters, cluster{members: []int{p}, core: append([]int{}, sig...)})
		default:
			rest = append(rest, p)
		}
	}

	// Materialize partitions: one per cluster plus a remainder for X-free
	// patterns, then hill-climb with the exact cost function, merging
	// whole partitions while that reduces the total control bits (an
	// unprofitable cluster's mask image costs more than the X's it saves
	// from canceling). Partitions are interned as states, so a candidate
	// merge re-evaluated across hill-climb rounds reuses its scan.
	var live []*partState
	intern := func(v gf2.Vec) *partState {
		st := e.stateFor(v)
		st.ensureStats(e, nil)
		return st
	}
	for _, c := range clusters {
		v := gf2.NewVec(m.Patterns())
		for _, p := range c.members {
			v.Set(p)
		}
		live = append(live, intern(v))
	}
	if len(rest) > 0 || len(live) == 0 {
		v := gf2.NewVec(m.Patterns())
		for _, p := range rest {
			v.Set(p)
		}
		live = append(live, intern(v))
	}
	// Running totals over the live list; a merge of (i, j) into u reprices
	// as a three-contribution swap against them.
	masked, maskBits := 0, len(live)*e.params.maskImageBits()
	for _, st := range live {
		masked += st.maskedX
	}
	cost := maskBits + e.cancelBits(masked)
	e.obsFull.Inc()
	union := func(a, b *partState) *partState {
		v := a.part.Clone()
		v.Or(b.part)
		return intern(v)
	}
	mergeCost := func(a, b, u *partState) int {
		e.obsDelta.Inc()
		return maskBits - e.params.maskImageBits() +
			e.cancelBits(masked-a.maskedX-b.maskedX+u.maskedX)
	}
	for len(live) > 1 {
		if err := e.err(); err != nil {
			return nil, err
		}
		bestI, bestJ, bestCost := -1, -1, cost
		for i := 0; i < len(live); i++ {
			for j := i + 1; j < len(live); j++ {
				if c := mergeCost(live[i], live[j], union(live[i], live[j])); c < bestCost {
					bestCost, bestI, bestJ = c, i, j
				}
			}
		}
		if bestI < 0 {
			break
		}
		a, b := live[bestI], live[bestJ]
		u := union(a, b)
		masked += u.maskedX - a.maskedX - b.maskedX
		maskBits -= e.params.maskImageBits()
		cost = bestCost
		next := make([]*partState, 0, len(live)-1)
		next = append(next, u)
		for k := range live {
			if k != bestI && k != bestJ {
				next = append(next, live[k])
			}
		}
		live = next
	}
	return e.finalize(live, nil), nil
}

// intersectSorted returns the intersection of two ascending int slices.
func intersectSorted(a, b []int) []int {
	out := make([]int, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
