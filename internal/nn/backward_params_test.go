package nn

import (
	"math/rand"
	"testing"

	"fedtrans/internal/tensor"
)

// inputScratch lists the workspace slots only the input gradient needs.
func inputScratch(c Cell) []*tensor.Tensor {
	switch c := c.(type) {
	case *DenseCell:
		return []*tensor.Tensor{c.gin}
	case *Conv2DCell:
		return []*tensor.Tensor{c.gin, c.dcol}
	case *ResidualDenseCell:
		return []*tensor.Tensor{c.gin}
	case *AttentionCell:
		return []*tensor.Tensor{c.gin}
	}
	panic("inputScratch: unknown cell")
}

// TestBackwardParamsBitEqualToBackward checks, for each parameterized
// cell family, that the parameter-gradients-only backward leaves every
// gradient tensor bit-equal to Backward on a clone — over two
// accumulating steps, so a skipped product that fed an accumulator would
// show — and that it acquires none of the input-gradient scratch.
func TestBackwardParamsBitEqualToBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(2000))
	cases := []struct {
		name string
		cell Cell
		in   []int
	}{
		{"dense", NewDenseCell(7, 5, true, rng), []int{4, 7}},
		{"dense/linear", NewDenseCell(7, 5, false, rng), []int{4, 7}},
		{"conv2d", NewConv2DCell(3, 4, 3, 1, true, rng), []int{3, 3, 6, 5}},
		{"conv2d/stride2", NewConv2DCell(2, 3, 5, 2, false, rng), []int{2, 2, 7, 7}},
		{"residual", NewResidualDenseCell(6, 9, rng), []int{4, 6}},
		{"attention", NewAttentionCellHeads(6, 10, 4, 1, rng), []int{3, 4, 6}},
		{"attention/heads", NewAttentionCellHeads(8, 10, 4, 4, rng), []int{3, 4, 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range tc.cell.Params() {
				p.RandNormal(rng, 0.5) // biases and identity-zero blocks too
			}
			full, skip := tc.cell, tc.cell.Clone()
			if _, ok := skip.(ParamBackwarder); !ok {
				t.Fatalf("%T does not implement ParamBackwarder", skip)
			}
			ZeroGrads(full)
			ZeroGrads(skip)
			for step := 0; step < 2; step++ {
				x := tensor.New(tc.in...)
				x.RandNormal(rng, 1)
				out := full.Forward(x)
				skip.Forward(x)
				grad := tensor.New(out.Shape...)
				grad.RandNormal(rng, 1)
				before := grad.Clone()
				if gin := full.Backward(grad); gin == nil {
					t.Fatal("Backward returned no input gradient")
				}
				BackwardParams(skip, grad)
				wantSameBits(t, "output gradient after both backwards", grad.Data, before.Data)
			}
			fg, sg := full.Grads(), skip.Grads()
			for i := range fg {
				wantSameBits(t, "gradient tensor", sg[i].Data, fg[i].Data)
				if fg[i].Norm() == 0 {
					t.Errorf("gradient tensor %d is all zero: the case pins nothing", i)
				}
			}
			for i, s := range inputScratch(skip) {
				if s != nil {
					t.Errorf("params-only backward acquired input-gradient scratch %d", i)
				}
			}
			for i, s := range inputScratch(full) {
				if s == nil {
					t.Errorf("scratch %d is not what Backward uses: the check above is vacuous", i)
				}
			}
		})
	}
}

// opaque forwards exactly the Cell methods, as a recording or timing
// wrapper does: it hides any ParamBackwarder the wrapped cell has.
type opaque struct{ Cell }

// TestBackwardParamsFallsBackToBackward pins the fallback: a Cell
// without the optional method gets a plain Backward, gradients intact.
func TestBackwardParamsFallsBackToBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(2001))
	direct := NewDenseCell(5, 3, true, rng)
	wrapped := opaque{direct.Clone()}
	if _, ok := Cell(wrapped).(ParamBackwarder); ok {
		t.Fatal("an embedded Cell interface must not expose BackwardParams")
	}
	x := tensor.New(4, 5)
	x.RandNormal(rng, 1)
	grad := tensor.New(4, 3)
	grad.RandNormal(rng, 1)
	direct.Forward(x)
	wrapped.Forward(x)
	BackwardParams(direct, grad)
	BackwardParams(wrapped, grad)
	for i, g := range direct.Grads() {
		wantSameBits(t, "gradient tensor", wrapped.Grads()[i].Data, g.Data)
	}
	if wrapped.Cell.(*DenseCell).gin == nil {
		t.Error("the fallback must have run the full Backward")
	}
}
