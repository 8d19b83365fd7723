package model

import "fedtrans/internal/nn"

// Sim computes the architectural similarity sim(Ma, Mb) ∈ [0, 1] of §4.2.
//
// The paper defines per-cell matching degrees mc(l) between a model and
// its parent: 1 for cells inherited unchanged, #param(l')/#param(l) for
// widened cells, 0 for inserted cells, and -1 for cells that lost their
// parent's weights. We generalize from parent/child pairs to any two
// models in the transformation tree by matching cells on their ancestor
// IDs (cells that share weights through the transformation lineage):
//
//   - matched cells score min(#param)/max(#param) — the inherited-weight
//     portion, which reduces to the paper's 1 and #param(l')/#param(l)
//     cases for parent/child pairs;
//   - unmatched cells (inserted in one model only) score 0.
//
// The cumulative score is normalized by the larger cell count so that
// sim(M, M) = 1 and similarity decays as architectures diverge.
func Sim(a, b *Model) float64 {
	if a == nil || b == nil {
		return 0
	}
	if a.ID == b.ID {
		return 1
	}
	score := 0.0
	for i := range a.Cells {
		k := b.CellOf(a.Cells[i].AncestorID)
		if k < 0 {
			continue
		}
		// The cached CellParams, not Cell.Params(): a conv cell's
		// Params allocates its slice on every call.
		pa := float64(nn.CountParams(a.CellParams(i)))
		pb := float64(nn.CountParams(b.CellParams(k)))
		if pa == 0 || pb == 0 {
			// Parameter-free cells (pooling) match fully.
			score++
			continue
		}
		if pa < pb {
			score += pa / pb
		} else {
			score += pb / pa
		}
	}
	n := len(a.Cells)
	if len(b.Cells) > n {
		n = len(b.Cells)
	}
	if n == 0 {
		return 0
	}
	s := score / float64(n)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}
