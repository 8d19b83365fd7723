package nn

import (
	"math"
	"math/rand"

	"fedtrans/internal/tensor"
)

// ResidualDenseCell is a pre-activation residual bottleneck block:
//
//	y = x + ReLU(x W1 + b1) W2 + b2
//
// with model dimension D preserved and an internal hidden width H. It is
// the dense analogue of the paper's "ResNet block" Cell example (§3):
// widening grows H (function-preserving Net2Wider, interface unchanged)
// and deepening inserts a block whose W2 is zero, making the residual an
// exact identity.
type ResidualDenseCell struct {
	W1 *tensor.Tensor // (D, H)
	B1 *tensor.Tensor // (H)
	W2 *tensor.Tensor // (H, D)
	B2 *tensor.Tensor // (D)

	GW1, GB1, GW2, GB2 *tensor.Tensor

	x    *tensor.Tensor
	pre1 *tensor.Tensor
	u    *tensor.Tensor

	ws            tensor.Workspace
	f, y, dU, gin *tensor.Tensor
}

// NewResidualDenseCell returns a residual block of model dim d and hidden
// width h.
func NewResidualDenseCell(d, h int, rng *rand.Rand) *ResidualDenseCell {
	c := &ResidualDenseCell{
		W1: tensor.New(d, h), B1: tensor.New(h),
		W2: tensor.New(h, d), B2: tensor.New(d),
	}
	c.W1.RandNormal(rng, math.Sqrt(2.0/float64(d)))
	c.W2.RandNormal(rng, math.Sqrt(1.0/float64(h)))
	c.allocGrads()
	return c
}

func (c *ResidualDenseCell) allocGrads() {
	c.GW1 = tensor.New(c.W1.Shape...)
	c.GB1 = tensor.New(c.B1.Shape...)
	c.GW2 = tensor.New(c.W2.Shape...)
	c.GB2 = tensor.New(c.B2.Shape...)
}

// ensureGrads allocates the gradient tensors if a lazy Clone left them
// nil, sized to the current parameter shapes.
func (c *ResidualDenseCell) ensureGrads() {
	if c.GW1 == nil {
		c.allocGrads()
	}
}

// Kind implements Cell.
func (c *ResidualDenseCell) Kind() string { return "residual" }

// Dim returns the preserved model dimension.
func (c *ResidualDenseCell) Dim() int { return c.W1.Shape[0] }

// Hidden returns the internal bottleneck width.
func (c *ResidualDenseCell) Hidden() int { return c.W1.Shape[1] }

// Forward implements Cell for input (batch, D). Scratch comes from the
// cell's pooled workspace; steady-state steps allocate nothing.
func (c *ResidualDenseCell) Forward(x *tensor.Tensor) *tensor.Tensor {
	c.x = x
	batch := x.Shape[0]
	pre1 := c.ws.Ensure(&c.pre1, batch, c.Hidden())
	tensor.MatMulInto(pre1, x, c.W1)
	u := c.ws.Ensure(&c.u, pre1.Shape...)
	tensor.AddBiasReluRows(u, pre1, c.B1)
	f := c.ws.Ensure(&c.f, batch, c.Dim())
	tensor.MatMulInto(f, u, c.W2)
	tensor.AddBiasRows(f, c.B2)
	y := c.ws.Ensure(&c.y, x.Shape...)
	tensor.AddScaledInto(y, x, f, 1)
	return y
}

// Backward implements Cell.
func (c *ResidualDenseCell) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return c.backward(grad, true)
}

// BackwardParams implements ParamBackwarder: Backward without dU·W1ᵀ
// and the residual add.
func (c *ResidualDenseCell) BackwardParams(grad *tensor.Tensor) { c.backward(grad, false) }

func (c *ResidualDenseCell) backward(grad *tensor.Tensor, needInput bool) *tensor.Tensor {
	c.ensureGrads()
	// y = x + f(x): dx gets grad directly plus the branch contribution.
	dU := c.ws.Ensure(&c.dU, grad.Shape[0], c.Hidden())
	tensor.MatMulTransBInto(dU, grad, c.W2)
	tensor.ReluMask(dU, c.pre1)
	tensor.MatMulTransAAccInto(c.GW2, c.u, grad)
	tensor.SumRowsAcc(c.GB2, grad)
	tensor.SumRowsAcc(c.GB1, dU)
	tensor.MatMulTransAAccInto(c.GW1, c.x, dU)
	if !needInput {
		return nil
	}
	gin := c.ws.Ensure(&c.gin, grad.Shape...)
	tensor.MatMulTransBInto(gin, dU, c.W1)
	tensor.AddScaledInto(gin, grad, gin, 1)
	return gin
}

// ReleaseWorkspace implements WorkspaceHolder.
func (c *ResidualDenseCell) ReleaseWorkspace() { c.ws.Release() }

// Params implements Cell.
func (c *ResidualDenseCell) Params() []*tensor.Tensor {
	return []*tensor.Tensor{c.W1, c.B1, c.W2, c.B2}
}

// Grads implements Cell.
func (c *ResidualDenseCell) Grads() []*tensor.Tensor {
	c.ensureGrads()
	return []*tensor.Tensor{c.GW1, c.GB1, c.GW2, c.GB2}
}

// Clone implements Cell: weight buffers are shared copy-on-write,
// gradients materialize lazily, caches are dropped.
func (c *ResidualDenseCell) Clone() Cell {
	return &ResidualDenseCell{
		W1: c.W1.LazyClone(), B1: c.B1.LazyClone(),
		W2: c.W2.LazyClone(), B2: c.B2.LazyClone(),
	}
}

// MACsPerSample implements Cell.
func (c *ResidualDenseCell) MACsPerSample() float64 {
	return 2 * float64(c.Dim()) * float64(c.Hidden())
}

// WidenSelf implements SelfWidener via Net2Wider on the hidden width; the
// block function is preserved exactly.
func (c *ResidualDenseCell) WidenSelf(factor float64, rng *rand.Rand) {
	oldH := c.Hidden()
	newH := int(math.Ceil(float64(oldH) * factor))
	if newH <= oldH {
		newH = oldH + 1
	}
	mapping, counts := WidenMapping(oldH, newH, rng)
	d := c.Dim()
	w1 := tensor.New(d, newH)
	b1 := tensor.New(newH)
	for j, src := range mapping {
		b1.Data[j] = c.B1.Data[src]
		for i := 0; i < d; i++ {
			w1.Data[i*newH+j] = c.W1.At(i, src)
		}
	}
	w2 := tensor.New(newH, d)
	for j, src := range mapping {
		scale := tensor.Float(1.0 / float64(counts[src]))
		for k := 0; k < d; k++ {
			w2.Data[j*d+k] = c.W2.At(src, k) * scale
		}
	}
	c.W1.Release()
	c.B1.Release()
	c.W2.Release()
	c.W1, c.B1, c.W2 = w1, b1, w2
	c.allocGrads()
}

// IdentityLike implements IdentityInserter: a block with zero W2/B2 adds
// nothing to the residual, an exact identity for inputs of any sign.
func (c *ResidualDenseCell) IdentityLike() Cell {
	rng := rand.New(rand.NewSource(int64(c.Dim())*999_983 + int64(c.Hidden())))
	id := NewResidualDenseCell(c.Dim(), c.Hidden(), rng)
	id.W2.Zero()
	id.B2.Zero()
	return id
}
