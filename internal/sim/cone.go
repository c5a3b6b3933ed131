package sim

// Event-driven word-parallel evaluation: the PPSFP fault-simulation kernel.
//
// A single stuck-at fault can only disturb the gates in its combinational
// fanout cone, and within the cone only the gates its effect actually
// reaches. After the fault-free ("good") machine has been evaluated once for
// a 64-pattern block, each fault re-evaluates just the gates with a fanin
// whose faulty word differs from the good one; every other word is read
// straight from the retained good machine. Block captures the good
// machine's full pval state, ConeIndex holds the circuit-wide immutable
// adjacency (built once, shared by every worker), and ConeSim is the
// per-worker scratch that propagates one fault at a time. internal/fault
// drives these from its fault-parallel PPSFP engine; the scalar equivalence
// is locked by TestPropagateMatchesScalar.

import (
	"xhybrid/internal/logic"
	"xhybrid/internal/netlist"
)

// Block is the retained word-level state of one evaluated batch of up to 64
// patterns: every node's 64-way pval word, immutable once built. It is the
// good-machine side of the PPSFP kernel — fault propagation reads every
// word the fault has not disturbed from it.
type Block struct {
	n     int
	lanes uint64 // mask of valid lanes: bits [0, n)
	vals  []pval
}

// Patterns returns the number of patterns the block evaluated.
func (b *Block) Patterns() int { return b.n }

// CaptureBlock is Capture, but instead of unpacking the scan captures it
// retains the whole evaluated word state as an immutable Block for later
// cone evaluations. The simulator's scratch is copied, so the block stays
// valid across further Capture calls on the same PSim.
func (s *PSim) CaptureBlock(loads, pis []logic.Vector) (*Block, error) {
	if err := s.eval(loads, pis, NoFault); err != nil {
		return nil, err
	}
	n := len(loads)
	b := &Block{n: n, lanes: laneMask(n), vals: make([]pval, len(s.vals))}
	copy(b.vals, s.vals)
	return b, nil
}

// laneMask returns the mask of valid lanes for an n-pattern batch.
func laneMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// ConeIndex is the immutable circuit-wide adjacency the cone kernel needs:
// combinational fanout (CSR-compacted), the scan cells observing each node,
// each node's topological rank, and the gates laid out in rank order. Build
// it once per circuit and share it across workers; per-worker scratch lives
// in ConeSim.
type ConeIndex struct {
	// fanout CSR: readers[fanoutOff[n]:fanoutOff[n+1]] are the
	// combinational gates reading node n (state elements excluded — they
	// do not propagate combinationally; their capture is read separately).
	fanoutOff []int32
	readers   []int32
	// capOf CSR: capCells[capOff[n]:capOff[n+1]] are the scan-cell indices
	// whose capture input (DFF fanin) is node n.
	capOff   []int32
	capCells []int32
	// capIn[i] is the capture driver node of scan cell i.
	capIn []int32
	// pos[n] is the node's topological rank: 0 for sources, EvalOrder
	// position + 1 for combinational gates; order is its inverse over
	// combinational gates (order[pos[n]] == n). Popping gates by rank
	// yields a valid evaluation order.
	pos   []int32
	order []int32
	// The gates again, by rank: rank r has type typ[r] and fanins
	// fanin[faninOff[r]:faninOff[r+1]], packed so the kernel's pops walk
	// memory in rank order.
	typ      []netlist.GateType
	faninOff []int32
	fanin    []int
}

// NewConeIndex builds the shared cone adjacency for a finalized circuit.
func NewConeIndex(c *netlist.Circuit) *ConeIndex {
	n := c.NumGates()
	ranks := len(c.EvalOrder()) + 1
	ix := &ConeIndex{
		fanoutOff: make([]int32, n+1),
		capOff:    make([]int32, n+1),
		capIn:     make([]int32, len(c.ScanCells)),
		pos:       make([]int32, n),
		order:     make([]int32, ranks),
		typ:       make([]netlist.GateType, ranks),
		faninOff:  make([]int32, ranks+1),
	}
	for i, id := range c.EvalOrder() {
		r := i + 1
		ix.pos[id] = int32(r)
		ix.order[r] = int32(id)
		ix.typ[r] = c.Gates[id].Type
		ix.fanin = append(ix.fanin, c.Gates[id].Fanin...)
		ix.faninOff[r+1] = int32(len(ix.fanin))
	}
	// Count, prefix-sum, fill: classic two-pass CSR build.
	for _, g := range c.Gates {
		if g.Type.IsState() {
			continue
		}
		for _, f := range g.Fanin {
			ix.fanoutOff[f+1]++
		}
	}
	for i, id := range c.ScanCells {
		ix.capIn[i] = int32(c.Gates[id].Fanin[0])
		ix.capOff[c.Gates[id].Fanin[0]+1]++
	}
	for i := 0; i < n; i++ {
		ix.fanoutOff[i+1] += ix.fanoutOff[i]
		ix.capOff[i+1] += ix.capOff[i]
	}
	ix.readers = make([]int32, ix.fanoutOff[n])
	ix.capCells = make([]int32, ix.capOff[n])
	next := make([]int32, n)
	for id, g := range c.Gates {
		if g.Type.IsState() {
			continue
		}
		for _, f := range g.Fanin {
			ix.readers[ix.fanoutOff[f]+next[f]] = int32(id)
			next[f]++
		}
	}
	for i := range next {
		next[i] = 0
	}
	for i := range c.ScanCells {
		d := ix.capIn[i]
		ix.capCells[ix.capOff[d]+next[d]] = int32(i)
		next[d]++
	}
	return ix
}

// fanoutOf returns the combinational readers of node n.
func (ix *ConeIndex) fanoutOf(n int32) []int32 {
	return ix.readers[ix.fanoutOff[n]:ix.fanoutOff[n+1]]
}

// capCellsOf returns the scan cells capturing node n.
func (ix *ConeIndex) capCellsOf(n int32) []int32 {
	return ix.capCells[ix.capOff[n]:ix.capOff[n+1]]
}

// ConeSim is one worker's fault-propagation scratch: a full-size faulty word
// array with generation stamps (so "reset" is a counter bump, not a clear)
// and the event heap. Not safe for concurrent use — parallel callers give
// each worker its own ConeSim over a shared ConeIndex.
type ConeSim struct {
	ix     *ConeIndex
	faulty []pval
	// stamp[n] is node n's state in the current evaluation, generation
	// gen: queued(gen) once n is on the heap, valid(gen) once faulty[n]
	// holds its word, anything smaller when n is untouched. Sharing one
	// word per node means the push check and the later fanin read of the
	// same node touch the same memory.
	stamp []uint32
	gen   uint32
	// heap is a binary min-heap of topological ranks (ConeIndex.pos).
	heap []int32
}

// queued and valid are the stamp values of generation gen; both exceed
// every stamp of an earlier generation.
func queued(gen uint32) uint32 { return 2 * gen }
func valid(gen uint32) uint32  { return 2*gen + 1 }

// NewSim returns a fresh per-worker fault propagator over the index.
func (ix *ConeIndex) NewSim() *ConeSim {
	n := len(ix.pos)
	return &ConeSim{
		ix:     ix,
		faulty: make([]pval, n),
		stamp:  make([]uint32, n),
	}
}

// Propagate evaluates the fault against the good block, event-driven: it
// forces the fault word, and whenever a node's faulty word differs from its
// good word in a valid lane it schedules that node's readers, popping gates
// in topological rank so each is evaluated at most once, after all its
// fanins. Gates never scheduled equal the good machine by construction, so
// their words are read straight from the block. visit is called once per
// scan cell whose captured word provably flips — lanes has bit k set when
// pattern k's capture is a known value in both machines and the values
// differ — in no particular cell order. Returns the number of gate
// evaluations performed and whether the forced word differs from the good
// word at all (when it does not, nothing downstream can differ and visit
// is not called).
func (cs *ConeSim) Propagate(b *Block, fault Fault, visit func(cell int, lanes uint64)) (evals int, activated bool) {
	ix := cs.ix
	if fault.Node < 0 || fault.Node >= len(b.vals) {
		return 0, false
	}
	forced := fromV(fault.StuckAt)
	if !differs(forced, b.vals[fault.Node], b.lanes) {
		return 0, false
	}
	cs.gen++
	if valid(cs.gen) < valid(cs.gen-1) {
		// The stamps wrapped around: start over from a clean slate.
		clear(cs.stamp)
		cs.gen = 1
	}
	ok := valid(cs.gen)
	cs.emit(b, int32(fault.Node), forced, visit)
	for len(cs.heap) > 0 {
		r := cs.pop()
		id := int(ix.order[r])
		g := netlist.Gate{Type: ix.typ[r], Fanin: ix.fanin[ix.faninOff[r]:ix.faninOff[r+1]]}
		for _, f := range g.Fanin {
			if cs.stamp[f] != ok {
				cs.faulty[f] = b.vals[f]
				cs.stamp[f] = ok
			}
		}
		fw := evalGateP(g, cs.faulty)
		evals++
		if differs(fw, b.vals[id], b.lanes) {
			cs.emit(b, int32(id), fw, visit)
		}
	}
	return evals, true
}

// emit records node n's faulty word fw (known to differ from the good
// word), reports the scan cells capturing it, and schedules its readers.
func (cs *ConeSim) emit(b *Block, n int32, fw pval, visit func(cell int, lanes uint64)) {
	ix := cs.ix
	cs.faulty[n] = fw
	cs.stamp[n] = valid(cs.gen)
	gw := b.vals[n]
	if diff := (gw.one ^ fw.one) &^ (gw.x | fw.x) & b.lanes; diff != 0 {
		for _, cell := range ix.capCellsOf(n) {
			visit(int(cell), diff)
		}
	}
	q := queued(cs.gen)
	for _, r := range ix.fanoutOf(n) {
		if cs.stamp[r] < q {
			cs.stamp[r] = q
			cs.push(ix.pos[r])
		}
	}
}

// differs reports whether two words differ in any of the given lanes.
func differs(a, b pval, lanes uint64) bool {
	return ((a.one^b.one)|(a.x^b.x))&lanes != 0
}

// push adds a rank to the min-heap.
func (cs *ConeSim) push(rank int32) {
	h := append(cs.heap, rank)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= rank {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = rank
	cs.heap = h
}

// pop removes and returns the smallest rank on the heap.
func (cs *ConeSim) pop() int32 {
	h := cs.heap
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if last <= h[c] {
			break
		}
		h[i] = h[c]
		i = c
	}
	if len(h) > 0 {
		h[i] = last
	}
	cs.heap = h
	return top
}

// CellCount returns the scan-cell count of the indexed circuit (the width
// visit cell indices range over).
func (ix *ConeIndex) CellCount() int { return len(ix.capIn) }
