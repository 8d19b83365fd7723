package aggregate

import (
	"testing"

	"fedtrans/internal/tensor"
)

// TestMaskedMeanCoversWhatContributed: an entry is the weighted mean of
// the contributions whose top-left crop reaches it — by division — and
// an entry nothing reaches keeps its value, on a buffer that was shared
// copy-on-write when Write ran.
func TestMaskedMeanCoversWhatContributed(t *testing.T) {
	p := tensor.New(3, 3)
	p.Fill(9)
	shared := p.LazyClone()
	crop := tensor.FromSlice([]tensor.Float{1, 2, 3, 4}, 2, 2)
	row := tensor.FromSlice([]tensor.Float{0.1, 0.1, 0.1, 0.1}, 1, 4)
	mean := NewMaskedMean([]*tensor.Tensor{p})
	mean.Add([]*tensor.Tensor{crop}, 1)
	mean.Add([]*tensor.Tensor{row}, 3)
	mean.Write()
	tenth := float64(tensor.Float(0.1))
	want := []tensor.Float{
		tensor.Float((1 + tenth*3) / 4), tensor.Float((2 + tenth*3) / 4), tensor.Float(tenth * 3 / 3),
		3, 4, 9,
		9, 9, 9,
	}
	for i, v := range want {
		if p.Data[i] != v {
			t.Errorf("entry %d = %v, want %v", i, p.Data[i], v)
		}
	}
	for i, v := range shared.Data {
		if v != 9 {
			t.Errorf("the copy-on-write sibling's entry %d moved to %v", i, v)
		}
	}
}
