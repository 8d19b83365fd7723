// Package aggregate implements the paper's Model Aggregator (§4.3):
// sample-weighted FedAvg within each model, plus soft inter-model weight
// sharing (Eq. 5) that borrows updates from architecturally similar models
// with a round-decaying factor η, cropping tensors to shape as in HeteroFL.
// Sharing from larger (newer) models into smaller ones ("l2s") is disabled
// by default, which Table 1 shows is critical for small-model accuracy.
//
// The aggregator is transport-agnostic: uploads produced in-process and
// uploads decoded off the wire by the networked coordinator
// (internal/netcoord) feed the same streaming accumulator in
// the same fold order, which is what keeps a distributed run
// byte-identical to a local one. Every accumulator here keeps its
// float64 sums per parameter tensor and folds on its caller's goroutine:
// memory is O(models × params), and any fan-out is the caller's.
package aggregate

import (
	"fedtrans/internal/model"
	"fedtrans/internal/tensor"
)

// Update is one client's round contribution for a specific model.
type Update struct {
	ModelID int
	Weights []*tensor.Tensor
	Samples int
	Loss    float64
	// Staleness counts the server rounds that elapsed between the
	// client's model download and this update's arrival (FedBuff-style
	// asynchronous rounds). The aggregator discounts the update's weight
	// by StalenessDiscount(Staleness); 0 — every synchronous update —
	// applies no discount.
	Staleness int
}

// SoftConfig parameterizes inter-model soft aggregation.
type SoftConfig struct {
	// AllowL2S permits weight flow from larger/newer models to smaller
	// ones. The paper disables this (Table 1: enabling it costs 15-23
	// accuracy points).
	AllowL2S bool
	// DisableDecay freezes eta^t at 1 (the Table 3 "-d" ablation).
	DisableDecay bool
}

// eta is the per-round decay base of Eq. 5 (Table 7's decay factor): the
// cross-model contribution of model i to model j is weighted by
// eta^t * sim(Mi, Mj), shrinking as training matures.
const eta = 0.98

// DefaultSoftConfig returns the paper defaults: no large-to-small
// sharing, decay on.
func DefaultSoftConfig() SoftConfig { return SoftConfig{} }

// SoftAggregate applies Eq. 5 to the model suite in place: each model j's
// weights become a similarity-weighted average over contributions from
// models i ≤ j (suite order is creation order, so i ≤ j means equal or
// smaller/earlier models unless AllowL2S is set, in which case all models
// contribute). Contributor cells are matched to destination cells by
// lineage (model.Model.CellOf) — positions shift across deepen
// insertions — and tensors are cropped to the destination shape as in
// HeteroFL. Cells with no counterpart in a contributor keep the
// destination's own weights for that contributor's share. Every model's
// sums are taken from the live suite before any mean is written, so each
// contributor counts at its pre-aggregation weights whatever the suite
// order.
func SoftAggregate(suite []*model.Model, round int, cfg SoftConfig) {
	if len(suite) < 2 {
		return
	}
	decay := 1.0
	if !cfg.DisableDecay {
		decay = pow(eta, round)
	}
	sums := make([][][]float64, len(suite))
	inv := make([]float64, len(suite))
	for j, mj := range suite {
		params := mj.Params()
		acc := make([][]float64, len(params))
		for i := range acc {
			acc[i] = make([]float64, params[i].Len())
		}
		wsum := 0.0
		for i, mi := range suite {
			if !cfg.AllowL2S && i > j {
				continue
			}
			sim := model.Sim(mi, mj)
			if sim <= 0 {
				continue
			}
			weight := sim
			if i != j {
				weight *= decay
			}
			wsum += weight
			addAligned(acc, mj, mi, weight)
		}
		sums[j], inv[j] = acc, 1.0/wsum // wsum ≥ 1: Sim(mj, mj) = 1
	}
	for j, mj := range suite {
		writeMean(mj.Params(), sums[j], inv[j])
	}
}

// writeMean stores float32(sum·inv) into every entry of params, sums[i]
// parallel to params[i].Data, detaching copy-on-write buffers first
// (every entry is overwritten). StreamingFedAvg.Finalize and
// SoftAggregate average through it.
func writeMean(params []*tensor.Tensor, sums [][]float64, inv float64) {
	for i, p := range params {
		p.EnsureOwnedDiscard()
		dst := p.Data[:len(sums[i])]
		for j, v := range sums[i] {
			dst[j] = tensor.Float(v * inv)
		}
	}
}

// addAligned accumulates weight×(contributor src) into acc, walking the
// destination model's cells and reading, for each, the contributor's
// last cell of the same ancestor (src.CellOf), and the head from the
// head. Unmatched or shape-incompatible tensors count the destination's
// own weights so normalization stays consistent.
func addAligned(acc [][]float64, dst, src *model.Model, weight float64) {
	pi := 0
	addOwn := func(d *tensor.Tensor) {
		for j := range acc[pi] {
			acc[pi][j] += float64(d.Data[j]) * weight
		}
	}
	addFrom := func(s, d *tensor.Tensor) {
		if sameShape(s, d) {
			for j, v := range s.Data {
				acc[pi][j] += float64(v) * weight
			}
			return
		}
		if s.Rank() != d.Rank() {
			addOwn(d)
			return
		}
		cropAdd(acc[pi], s, d, weight)
	}
	for ci := 0; ci <= len(dst.Cells); ci++ {
		k := len(src.Cells) // the head
		if ci < len(dst.Cells) {
			k = src.CellOf(dst.Cells[ci].AncestorID)
		}
		var srcParams []*tensor.Tensor
		if k >= 0 {
			srcParams = src.CellParams(k)
		}
		for n, d := range dst.CellParams(ci) {
			if n < len(srcParams) {
				addFrom(srcParams[n], d)
			} else {
				addOwn(d)
			}
			pi++
		}
	}
}

func sameShape(a, b *tensor.Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// cropAdd adds weight*src into acc over the overlapping region of src and
// dst shapes; outside the overlap the destination keeps its own value.
// The overlap's runs arrive in ascending destination order, so the
// entries outside it are the gaps between runs: every entry of acc
// receives exactly one addition.
func cropAdd(acc []float64, src, dst *tensor.Tensor, weight float64) {
	next := 0 // first destination entry not yet added to
	own := func(upto int) {
		for ; next < upto; next++ {
			acc[next] += float64(dst.Data[next]) * weight
		}
	}
	tensor.ForOverlap(dst, src, func(di, si, n int) {
		own(di)
		for j, v := range src.Data[si : si+n] {
			acc[di+j] += float64(v) * weight
		}
		next = di + n
	})
	own(len(acc))
}

func pow(base float64, exp int) float64 {
	out := 1.0
	for i := 0; i < exp; i++ {
		out *= base
		if out < 1e-9 {
			return 0
		}
	}
	return out
}
