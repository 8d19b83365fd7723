package aggregate

import "fedtrans/internal/tensor"

// MaskedMean is the entry-wise weighted mean the multi-model baselines
// and clustered training aggregate with: every parameter entry becomes
// the mean of the contributions that cover it, and an entry nothing
// covers keeps its value. HeteroFL folds each submodel update into the
// top-left region it was cropped from with weight 1; FLuID and a
// cluster round fold whole-model updates weighted by sample count.
//
// Bit-identity with the loops it replaced: an entry's sum starts at +0
// and gains float64(v)·w per contribution in Add order, its weight
// gains w in the same order, and Write stores float32(sum / weight) — a
// division, where StreamingFedAvg.Finalize multiplies by 1/weight and
// so rounds differently. Reordering Add calls, or scaling by a
// reciprocal, moves the last bit of a mean.
type MaskedMean struct {
	params      []*tensor.Tensor
	sum, weight [][]float64
}

// NewMaskedMean returns an empty mean over params, which Write updates.
func NewMaskedMean(params []*tensor.Tensor) *MaskedMean {
	m := &MaskedMean{params: params, sum: make([][]float64, len(params)), weight: make([][]float64, len(params))}
	for i, p := range params {
		m.sum[i] = make([]float64, p.Len())
		m.weight[i] = make([]float64, p.Len())
	}
	return m
}

// Add folds one contribution with weight w: src[i] covers the region of
// parameter i the two shapes share from index 0 on every axis
// (tensor.ForOverlap) — all of it when the shapes are equal.
func (m *MaskedMean) Add(src []*tensor.Tensor, w float64) {
	for i, s := range src {
		sum, weight := m.sum[i], m.weight[i]
		tensor.ForOverlap(m.params[i], s, func(di, si, n int) {
			for j, v := range s.Data[si : si+n] {
				sum[di+j] += float64(v) * w
				weight[di+j] += w
			}
		})
	}
}

// Write stores the mean into every covered entry of the parameters,
// detaching copy-on-write buffers first.
func (m *MaskedMean) Write() {
	for i, p := range m.params {
		p.EnsureOwned()
		for j, w := range m.weight[i] {
			if w > 0 {
				p.Data[j] = tensor.Float(m.sum[i][j] / w)
			}
		}
	}
}
