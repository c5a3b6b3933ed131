// Package flow orchestrates the complete hybrid X-handling deployment: from
// an X-location map it builds the tester "program" — partition masks,
// pattern application order, canceling configuration, and the cycle-level
// schedule — and it can replay a full response set through the hardware
// models (mask stage → spatial compactor → symbolic X-canceling MISR) to
// verify that the program behaves as accounted: every extracted signature
// is X-free and no observable capture was masked.
//
// This package implements the ATE scheduling extension of DESIGN.md §7 and
// the end-to-end replay leg of the verification strategy in §8 (signatures
// checked against symbolic prediction, observable captures never masked).
package flow

import (
	"context"
	"fmt"

	"xhybrid/internal/compactor"
	"xhybrid/internal/core"
	"xhybrid/internal/logic"
	"xhybrid/internal/obs"
	"xhybrid/internal/scan"
	"xhybrid/internal/tester"
	"xhybrid/internal/xcancel"
	"xhybrid/internal/xmap"
)

// Program is everything the tester needs to apply the hybrid test.
type Program struct {
	// Geom is the scan geometry.
	Geom scan.Geometry
	// Cancel is the X-canceling MISR configuration.
	Cancel xcancel.Config
	// Partitions are the pattern partitions with their masks.
	Partitions []core.Partition
	// PatternOrder applies partitions contiguously (one mask load each).
	PatternOrder []int
	// PartitionOf[i] is the partition id of PatternOrder[i].
	PartitionOf []int
	// Accounting mirrors core.Result for the plan.
	Accounting *core.Result
	// Schedule is the cycle-level tester schedule.
	Schedule tester.Schedule
	// Obs carries params.Obs into the replay stage; nil disables
	// observation.
	Obs *obs.Recorder
}

// Build partitions the X-map and assembles the program. The partitioning,
// ordering and scheduling stages are recorded on params.Obs when set. It is
// BuildCtx with a background context.
func Build(m *xmap.XMap, params core.Params, tcfg tester.Config) (*Program, error) {
	return BuildCtx(context.Background(), m, params, tcfg)
}

// BuildCtx is Build under a context: canceling ctx stops the partitioner
// mid-round, which is how the serving layer's /v1/flow jobs abort promptly.
func BuildCtx(ctx context.Context, m *xmap.XMap, params core.Params, tcfg tester.Config) (*Program, error) {
	defer params.Obs.Span("flow.build")()
	res, err := core.RunCtx(ctx, m, params)
	if err != nil {
		return nil, err
	}
	return Assemble(res, params.Geom, params.Cancel, tcfg, params.Obs)
}

// Assemble builds the tester program around an already-computed
// partitioning result: pattern ordering, halt budget and the cycle-level
// schedule. BuildCtx is Assemble after core.RunCtx; callers that produced
// the result some other way — RunClustered plans, or stratbench racing many
// strategies over one X-map — assemble directly and verify through the same
// replay path. rec may be nil.
func Assemble(res *core.Result, geom scan.Geometry, cancel xcancel.Config, tcfg tester.Config, rec *obs.Recorder) (*Program, error) {
	prog := &Program{
		Geom:       geom,
		Cancel:     cancel,
		Partitions: res.Partitions,
		Accounting: res,
		Obs:        rec,
	}
	sizes := make([]int, len(res.Partitions))
	for i, p := range res.Partitions {
		sizes[i] = p.Size()
		for _, pat := range p.Patterns.Indices() {
			prog.PatternOrder = append(prog.PatternOrder, pat)
		}
	}
	prog.PartitionOf = tester.OrderedByPartition(sizes)
	halts := xcancel.Halts(res.ResidualX, cancel.MISR.Size, cancel.Q)
	sched, err := tester.Compute(tester.Plan{
		Geom:             geom,
		PartitionOf:      prog.PartitionOf,
		MaskBitsPerImage: geom.Cells(),
		Halts:            halts,
		MISRSize:         cancel.MISR.Size,
		Q:                cancel.Q,
	}, tcfg)
	if err != nil {
		return nil, err
	}
	prog.Schedule = sched
	return prog, nil
}

// partitionIndex returns the partition id containing pattern p, or -1.
func (prog *Program) partitionIndex(p int) int {
	for i, part := range prog.Partitions {
		if part.Patterns.Get(p) {
			return i
		}
	}
	return -1
}

// VerifyReport summarizes a hardware-model replay of the program.
type VerifyReport struct {
	// PatternsApplied is the number of responses replayed.
	PatternsApplied int
	// MaskedX is the number of X captures removed by the mask stage.
	MaskedX int
	// ObservableMasked counts known captures destroyed by masks — the
	// fault-coverage guarantee demands zero.
	ObservableMasked int
	// UnmaskedX is the number of X captures left at the mask output,
	// before compaction: exactly the plan's accounting residual.
	UnmaskedX int
	// ResidualX is the number of X's that reached the MISR after masking
	// and compaction (compaction can fold several into one).
	ResidualX int
	// Halts and Signatures summarize the canceling sessions.
	Halts      int
	Signatures int
	// Deficits counts halts that could not extract the full q combinations.
	Deficits int
	// ControlBits is the canceling control data actually transferred.
	ControlBits int
	// NormalizedTime is the measured shift+halt time over shift time.
	NormalizedTime float64
	// SignatureParities flattens the halt signatures' parities in order —
	// the values compared against the golden run.
	SignatureParities []int
	// FinalSignature is the end-of-test MISR signature.
	FinalSignature uint64
	// Violation is the replay verdict against the plan's accounting: empty
	// when no observable capture was masked, the masked and unmasked X's
	// equal the accounted MaskedX and ResidualX, the MISR residual does not
	// exceed the accounted one, and the halts fit the planned budget;
	// otherwise it names the first of those comparisons that failed, with
	// both numbers.
	Violation string
}

// violation checks a replay against the plan's accounting and the halt
// budget the schedule reserves for it, in the order VerifyReport.Violation
// documents.
func violation(rep *VerifyReport, acct *core.Result, plannedHalts int) string {
	switch {
	case rep.ObservableMasked != 0:
		return fmt.Sprintf("replay masked %d observable captures", rep.ObservableMasked)
	case rep.MaskedX != acct.MaskedX:
		return fmt.Sprintf("replay masked %d X's, plan accounts %d", rep.MaskedX, acct.MaskedX)
	case rep.UnmaskedX != acct.ResidualX:
		return fmt.Sprintf("replay left %d X's unmasked, plan accounts %d", rep.UnmaskedX, acct.ResidualX)
	case rep.ResidualX > acct.ResidualX:
		return fmt.Sprintf("replay residual %d exceeds accounted %d", rep.ResidualX, acct.ResidualX)
	case rep.Halts > plannedHalts:
		return fmt.Sprintf("replay ran %d halts, schedule planned %d", rep.Halts, plannedHalts)
	}
	return ""
}

// VerifyResponses replays the full response set through the program's
// hardware models and judges the replay against the plan's accounting
// (VerifyReport.Violation) — the one place the preservation verdict is
// computed. The responses' geometry must match the program; the compactor
// folds the chains onto the MISR inputs. Per-stage wall time and the
// cycle/pattern counters land on prog.Obs when set.
func VerifyResponses(prog *Program, set *scan.ResponseSet) (*VerifyReport, error) {
	if set.Geom != prog.Geom {
		return nil, fmt.Errorf("flow: response geometry %v does not match program %v", set.Geom, prog.Geom)
	}
	if set.Patterns() != len(prog.PatternOrder) {
		return nil, fmt.Errorf("flow: %d responses for %d planned patterns", set.Patterns(), len(prog.PatternOrder))
	}
	defer prog.Obs.Span("flow.replay")()
	obsPatterns := prog.Obs.Counter("flow.patterns.replayed")
	obsCycles := prog.Obs.Counter("flow.cycles.replayed")
	tree, err := compactor.NewModulo(prog.Geom.Chains, prog.Cancel.MISR.Size)
	if err != nil {
		return nil, err
	}
	canc, err := xcancel.NewCanceler(prog.Cancel)
	if err != nil {
		return nil, err
	}
	canc.Observe(prog.Obs)
	rep := &VerifyReport{}
	for _, p := range prog.PatternOrder {
		r := set.Responses[p]
		pi := prog.partitionIndex(p)
		if pi < 0 {
			return nil, fmt.Errorf("flow: pattern %d in no partition", p)
		}
		mask := prog.Partitions[pi].Mask
		// Count the mask stage's effect before applying it.
		var maskedHere, observableHere int
		mask.Cells.ForEach(func(cell int) {
			if r.Values[cell] == logic.X {
				maskedHere++
			} else {
				observableHere++
			}
		})
		rep.MaskedX += maskedHere
		rep.ObservableMasked += observableHere
		masked := mask.Apply(r)
		rep.UnmaskedX += masked.CountX()
		slices, err := tree.CompactResponse(masked)
		if err != nil {
			return nil, err
		}
		for _, s := range slices {
			rep.ResidualX += s.CountX()
			if err := canc.Shift(s); err != nil {
				return nil, err
			}
		}
		rep.PatternsApplied++
		obsPatterns.Inc()
		obsCycles.Add(int64(len(slices)))
	}
	res := canc.Finish()
	rep.Halts = len(res.Halts)
	rep.ControlBits = res.ControlBits
	rep.NormalizedTime = res.NormalizedTime()
	rep.FinalSignature = res.FinalSignature
	for _, h := range res.Halts {
		rep.Signatures += len(h.Signatures)
		rep.Deficits += h.Deficit
		for _, sig := range h.Signatures {
			rep.SignatureParities = append(rep.SignatureParities, sig.Parity)
		}
	}
	planned := xcancel.Halts(prog.Accounting.ResidualX, prog.Cancel.MISR.Size, prog.Cancel.Q)
	rep.Violation = violation(rep, prog.Accounting, planned)
	return rep, nil
}
