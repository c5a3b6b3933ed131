package main

import (
	"fmt"

	"xhybrid"
)

// MISR configuration every workload plans with (the paper's m=32, q=7).
const (
	misrM = 32
	misrQ = 7
)

// checkPlan recomputes a plan's accounting from the outside, against the
// X-map it was planned from: the partitions tile the pattern set, every
// masked cell is X under every pattern of its partition, maskedX +
// residualX = totalX, and the bits follow the Section 4 cost formula
// (cells per partition mask, ceil(m*q*residualX/(m-q)) to cancel).
func checkPlan(x *xhybrid.XLocations, p *xhybrid.Plan) error {
	seen := make([]bool, x.Patterns())
	masked := 0
	for i, part := range p.Partitions {
		for _, pat := range part.Patterns {
			if pat < 0 || pat >= len(seen) || seen[pat] {
				return fmt.Errorf("partition %d: pattern %d out of range or in two partitions", i, pat)
			}
			seen[pat] = true
		}
		for _, cell := range part.MaskedCells {
			if cell < 0 || cell >= x.Cells() {
				return fmt.Errorf("partition %d: masked cell %d out of range", i, cell)
			}
			chain, pos := cell/x.ChainLen(), cell%x.ChainLen()
			for _, pat := range part.Patterns {
				if !x.HasX(pat, chain, pos) {
					return fmt.Errorf("partition %d: masked cell %d is not X under pattern %d", i, cell, pat)
				}
			}
		}
		if want := len(part.MaskedCells) * len(part.Patterns); part.MaskedX != want {
			return fmt.Errorf("partition %d: maskedX %d, want %d", i, part.MaskedX, want)
		}
		masked += part.MaskedX
	}
	for pat, ok := range seen {
		if !ok {
			return fmt.Errorf("pattern %d in no partition", pat)
		}
	}
	if p.TotalX != x.TotalX() || p.MaskedX != masked || p.MaskedX+p.ResidualX != p.TotalX {
		return fmt.Errorf("X accounting: total %d (map %d), masked %d (partitions %d), residual %d",
			p.TotalX, x.TotalX(), p.MaskedX, masked, p.ResidualX)
	}
	maskBits := x.Cells() * len(p.Partitions)
	cancelBits := 0
	if p.ResidualX > 0 {
		cancelBits = (misrM*misrQ*p.ResidualX + misrM - misrQ - 1) / (misrM - misrQ)
	}
	if p.MaskBits != maskBits || p.CancelBits != cancelBits || p.TotalBits != maskBits+cancelBits {
		return fmt.Errorf("cost formula: bits %d+%d=%d, want %d+%d=%d",
			p.MaskBits, p.CancelBits, p.TotalBits, maskBits, cancelBits, maskBits+cancelBits)
	}
	return nil
}
