package flow

import (
	"context"
	"fmt"
	"testing"

	"xhybrid/internal/core"
	"xhybrid/internal/logic"
	"xhybrid/internal/misr"
	"xhybrid/internal/scan"
	"xhybrid/internal/tester"
	"xhybrid/internal/xcancel"
	"xhybrid/internal/xmap"
)

// buildSetup simulates a generated circuit and returns everything the flow
// needs: geometry, responses and the derived X-map.
func buildSetup(t *testing.T) (scan.Geometry, *scan.ResponseSet, *xmap.XMap) {
	t.Helper()
	xb, err := BuildXMap(context.Background(), Spec{
		Name: "flowtest", Cells: 128, Chains: 16, PIs: 8, XClusters: 4, XFanout: 5,
		CircuitSeed: 21, StimSeed: 17, Patterns: 80, MISRSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	geom, set, m := xb.Geom, xb.Responses, xb.XMap
	if m.TotalX() == 0 {
		t.Fatal("setup produced no X's")
	}
	return geom, set, m
}

func params(geom scan.Geometry) core.Params {
	return core.Params{
		Geom:   geom,
		Cancel: xcancel.Config{MISR: misr.MustStandard(8), Q: 2},
	}
}

func TestBuildProgram(t *testing.T) {
	geom, _, m := buildSetup(t)
	prog, err := Build(m, params(geom), tester.Config{Channels: 8, OverlapMaskLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.PatternOrder) != m.Patterns() {
		t.Fatalf("order covers %d of %d patterns", len(prog.PatternOrder), m.Patterns())
	}
	// Every pattern exactly once.
	seen := make(map[int]bool)
	for _, p := range prog.PatternOrder {
		if seen[p] {
			t.Fatalf("pattern %d applied twice", p)
		}
		seen[p] = true
	}
	// Partition-major order: one mask load per partition.
	if prog.Schedule.MaskLoads != len(prog.Partitions) {
		t.Fatalf("MaskLoads = %d, want %d (one per partition)", prog.Schedule.MaskLoads, len(prog.Partitions))
	}
	if prog.Schedule.Normalized() < 1 {
		t.Fatal("normalized time below 1")
	}
}

func TestVerifyResponses(t *testing.T) {
	geom, set, m := buildSetup(t)
	prog, err := Build(m, params(geom), tester.Config{Channels: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyResponses(prog, set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PatternsApplied != set.Patterns() {
		t.Fatalf("applied %d of %d patterns", rep.PatternsApplied, set.Patterns())
	}
	// The fault-coverage guarantee measured on hardware models: no
	// observable capture masked.
	if rep.ObservableMasked != 0 {
		t.Fatalf("masks destroyed %d observable captures", rep.ObservableMasked)
	}
	// Mask-stage effect matches the planning accounting exactly.
	if rep.MaskedX != prog.Accounting.MaskedX {
		t.Fatalf("MaskedX = %d, accounting says %d", rep.MaskedX, prog.Accounting.MaskedX)
	}
	// The mask output leaves exactly the accounting residual...
	if rep.UnmaskedX != prog.Accounting.ResidualX {
		t.Fatalf("UnmaskedX = %d, accounting residual %d", rep.UnmaskedX, prog.Accounting.ResidualX)
	}
	// ...and compaction can only fold X's together, never create them.
	if rep.ResidualX > prog.Accounting.ResidualX {
		t.Fatalf("residual %d exceeds accounting %d", rep.ResidualX, prog.Accounting.ResidualX)
	}
	if rep.Halts == 0 || rep.Signatures == 0 {
		t.Fatal("no canceling activity despite residual X's")
	}
	if rep.ControlBits != rep.Halts*8*2 {
		t.Fatalf("ControlBits = %d, want halts*m*q", rep.ControlBits)
	}
	if rep.NormalizedTime < 1 {
		t.Fatal("normalized time below 1")
	}
	// Halt count bounded by the closed form on the measured residual.
	if rep.Halts > xcancel.Halts(rep.ResidualX, 8, 2) {
		t.Fatalf("halts %d exceed bound %d", rep.Halts, xcancel.Halts(rep.ResidualX, 8, 2))
	}
}

func TestVerifyValidation(t *testing.T) {
	geom, set, m := buildSetup(t)
	prog, err := Build(m, params(geom), tester.Config{Channels: 8})
	if err != nil {
		t.Fatal(err)
	}
	other := scan.NewResponseSet(scan.MustGeometry(8, 16))
	if _, err := VerifyResponses(prog, other); err == nil {
		t.Fatal("accepted mismatched geometry")
	}
	short := scan.NewResponseSet(geom)
	if err := short.Append(set.Responses[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyResponses(prog, short); err == nil {
		t.Fatal("accepted wrong pattern count")
	}
}

func TestBuildPropagatesErrors(t *testing.T) {
	geom, _, m := buildSetup(t)
	bad := params(geom)
	bad.Cancel.Q = 0
	if _, err := Build(m, bad, tester.Config{Channels: 8}); err == nil {
		t.Fatal("accepted invalid cancel config")
	}
	if _, err := Build(m, params(geom), tester.Config{Channels: 0}); err == nil {
		t.Fatal("accepted invalid tester config")
	}
}

// TestVerifyViolation: the replay verdict names the first comparison that
// fails, with both numbers. Starting from a real program and its responses
// (which verify), each case breaks one comparison — through the program
// where a replay can reach it (a mask over an observable cell, an
// accounting that disagrees with the masks), through the measurements
// where a consistent replay cannot (compaction never adds X's, and the
// halts always fit the budget of the residual they retire).
func TestVerifyViolation(t *testing.T) {
	geom, set, m := buildSetup(t)
	base, err := Build(m, params(geom), tester.Config{Channels: 8})
	if err != nil {
		t.Fatal(err)
	}
	acct := *base.Accounting
	planned := xcancel.Halts(acct.ResidualX, 8, 2)

	// A cell partition 0's mask leaves open, and the known captures that
	// masking it would destroy.
	part := base.Partitions[0]
	cell, known := -1, 0
	for c := 0; c < geom.Cells() && cell < 0; c++ {
		if part.Mask.Masks(c) {
			continue
		}
		part.Patterns.ForEach(func(p int) {
			if set.Responses[p].Values[c] != logic.X {
				known++
			}
		})
		if known > 0 {
			cell = c
		}
	}
	if cell < 0 {
		t.Fatal("partition 0 masks every cell with a known capture")
	}

	cases := []struct {
		name string
		// prog perturbs a copy of the program before the replay; meas
		// perturbs the replay's measurements, after which the verdict is
		// recomputed against the (possibly perturbed) accounting.
		prog func(*Program)
		meas func(*VerifyReport)
		want string
	}{
		{name: "unperturbed", want: ""},
		{
			name: "observable masked",
			prog: func(p *Program) {
				cells := p.Partitions[0].Mask.Cells.Clone()
				cells.Set(cell)
				p.Partitions[0].Mask.Cells = cells
			},
			want: fmt.Sprintf("replay masked %d observable captures", known),
		},
		{
			name: "masked X",
			prog: func(p *Program) { p.Accounting.MaskedX++ },
			want: fmt.Sprintf("replay masked %d X's, plan accounts %d", acct.MaskedX, acct.MaskedX+1),
		},
		{
			name: "unmasked X",
			prog: func(p *Program) { p.Accounting.ResidualX++ },
			want: fmt.Sprintf("replay left %d X's unmasked, plan accounts %d", acct.ResidualX, acct.ResidualX+1),
		},
		{
			name: "residual",
			meas: func(r *VerifyReport) { r.ResidualX = acct.ResidualX + 1 },
			want: fmt.Sprintf("replay residual %d exceeds accounted %d", acct.ResidualX+1, acct.ResidualX),
		},
		{
			name: "halts",
			meas: func(r *VerifyReport) { r.Halts = planned + 1 },
			want: fmt.Sprintf("replay ran %d halts, schedule planned %d", planned+1, planned),
		},
		{
			name: "first failure wins",
			prog: func(p *Program) { p.Accounting.MaskedX++ },
			meas: func(r *VerifyReport) { r.ResidualX, r.Halts = acct.ResidualX+1, planned+1 },
			want: fmt.Sprintf("replay masked %d X's, plan accounts %d", acct.MaskedX, acct.MaskedX+1),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := *base
			a := acct
			prog.Accounting = &a
			prog.Partitions = append([]core.Partition(nil), base.Partitions...)
			if c.prog != nil {
				c.prog(&prog)
			}
			rep, err := VerifyResponses(&prog, set)
			if err != nil {
				t.Fatal(err)
			}
			if c.meas != nil {
				c.meas(rep)
				rep.Violation = violation(rep, prog.Accounting,
					xcancel.Halts(prog.Accounting.ResidualX, 8, 2))
			}
			if rep.Violation != c.want {
				t.Fatalf("Violation = %q, want %q", rep.Violation, c.want)
			}
		})
	}
}
