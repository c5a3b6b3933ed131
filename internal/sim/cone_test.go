package sim

import (
	"math/rand"
	"testing"

	"xhybrid/internal/logic"
	"xhybrid/internal/netlist"
)

// coneCircuit builds a generated circuit large enough for non-trivial cones.
func coneCircuit(t *testing.T, seed int64) *netlist.Circuit {
	c, err := netlist.Generate(netlist.GenConfig{
		Name:      "cone",
		ScanCells: 32,
		PIs:       6,
		XClusters: 3,
		XFanout:   4,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// randVec returns a random three-valued vector with a sprinkling of Xes.
func randVec(r *rand.Rand, n int) logic.Vector {
	v := make(logic.Vector, n)
	for i := range v {
		switch r.Intn(8) {
		case 0:
			v[i] = logic.X
		case 1, 2, 3:
			v[i] = logic.One
		default:
			v[i] = logic.Zero
		}
	}
	return v
}

// TestPropagateMatchesScalar is the kernel's ground truth: for every fault
// site × stuck value × pattern, Propagate's per-cell difference lanes must
// equal what the scalar simulator reports (capture differs, both values
// known), with each cell visited at most once per call.
func TestPropagateMatchesScalar(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c := coneCircuit(t, seed)
		r := rand.New(rand.NewSource(seed * 77))
		// 50 patterns: a partial block, so the lane mask matters.
		n := 50
		loads := make([]logic.Vector, n)
		pis := make([]logic.Vector, n)
		for k := 0; k < n; k++ {
			loads[k] = randVec(r, len(c.ScanCells))
			pis[k] = randVec(r, len(c.PIs))
		}
		blk, err := NewParallel(c).CaptureBlock(loads, pis)
		if err != nil {
			t.Fatal(err)
		}
		if blk.Patterns() != n {
			t.Fatalf("Patterns() = %d, want %d", blk.Patterns(), n)
		}

		// Scalar reference captures: good machine once, then per fault.
		scalar := New(c)
		good := make([]logic.Vector, n)
		for k := 0; k < n; k++ {
			cap, _, err := scalar.Capture(loads[k], pis[k], NoFault)
			if err != nil {
				t.Fatal(err)
			}
			good[k] = cap
		}

		ix := NewConeIndex(c)
		if ix.CellCount() != len(c.ScanCells) {
			t.Fatalf("CellCount = %d", ix.CellCount())
		}
		cs := ix.NewSim()
		for node := 0; node < c.NumGates(); node++ {
			switch c.Gates[node].Type {
			case netlist.DFF, netlist.NonScanDFF, netlist.Tie0, netlist.Tie1, netlist.TieX:
				continue
			}
			for _, sa := range []logic.V{logic.Zero, logic.One} {
				fault := Fault{Node: node, StuckAt: sa}
				gotLanes := make(map[int]uint64)
				evals, activated := cs.Propagate(blk, fault, func(cell int, lanes uint64) {
					if _, dup := gotLanes[cell]; dup {
						t.Fatalf("seed %d fault %d/sa%v: cell %d visited twice", seed, node, sa, cell)
					}
					if lanes>>uint(n) != 0 {
						t.Fatalf("seed %d fault %d/sa%v: cell %d differs in a lane past pattern %d", seed, node, sa, cell, n)
					}
					gotLanes[cell] = lanes
				})
				if !activated && (evals != 0 || len(gotLanes) != 0) {
					t.Fatalf("seed %d fault %d/sa%v: inactive fault evaluated %d gates", seed, node, sa, evals)
				}
				for k := 0; k < n; k++ {
					bad, _, err := scalar.Capture(loads[k], pis[k], fault)
					if err != nil {
						t.Fatal(err)
					}
					for cell := range bad {
						want := good[k][cell] != bad[cell] &&
							good[k][cell] != logic.X && bad[cell] != logic.X
						got := gotLanes[cell]>>uint(k)&1 == 1
						if got != want {
							t.Fatalf("seed %d fault %d/sa%v pattern %d cell %d: Propagate lane %v, scalar %v",
								seed, node, sa, k, cell, got, want)
						}
					}
				}
			}
		}
	}
}

// The rank index must invert the topological order, every Propagate must
// leave the event heap empty, and neither Propagate nor a later Capture on
// the same PSim may disturb the block retained by CaptureBlock.
func TestRankIndexAndBlockImmutability(t *testing.T) {
	c := coneCircuit(t, 5)
	r := rand.New(rand.NewSource(9))
	n := 16
	loads := make([]logic.Vector, n)
	pis := make([]logic.Vector, n)
	for k := 0; k < n; k++ {
		loads[k] = randVec(r, len(c.ScanCells))
		pis[k] = randVec(r, len(c.PIs))
	}
	ps := NewParallel(c)
	blk, err := ps.CaptureBlock(loads, pis)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]pval, len(blk.vals))
	copy(before, blk.vals)

	ix := NewConeIndex(c)
	for _, id := range c.EvalOrder() {
		if ix.order[ix.pos[id]] != int32(id) {
			t.Fatalf("order[pos[%d]] = %d", id, ix.order[ix.pos[id]])
		}
	}
	cs := ix.NewSim()
	for node := 0; node < c.NumGates(); node++ {
		for _, sa := range []logic.V{logic.Zero, logic.One} {
			cs.Propagate(blk, Fault{Node: node, StuckAt: sa}, func(int, uint64) {})
			if len(cs.heap) != 0 {
				t.Fatalf("node %d: %d ranks left on the event heap", node, len(cs.heap))
			}
		}
	}
	// Reusing the PSim must not disturb the retained block either.
	if _, err := ps.Capture(loads[:1], pis[:1]); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if blk.vals[i] != before[i] {
			t.Fatal("retained block mutated by Propagate or a later Capture")
		}
	}

	if _, err := ps.CaptureBlock(nil, nil); err == nil {
		t.Fatal("CaptureBlock accepted an empty batch")
	}
}
