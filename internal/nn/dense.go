package nn

import (
	"math"
	"math/rand"

	"fedtrans/internal/tensor"
)

// DenseCell is a fully connected layer followed by an optional ReLU. It is
// the dense analogue of the paper's NASBench201-style cell and the main
// building block of the scaled-down experiment models.
type DenseCell struct {
	W    *tensor.Tensor // (in, out)
	B    *tensor.Tensor // (out)
	GW   *tensor.Tensor
	GB   *tensor.Tensor
	ReLU bool

	x   *tensor.Tensor // cached input
	pre *tensor.Tensor // cached pre-activation

	ws             tensor.Workspace
	act, gbuf, gin *tensor.Tensor
}

// NewDenseCell returns a DenseCell with Kaiming-style initialization.
func NewDenseCell(in, out int, relu bool, rng *rand.Rand) *DenseCell {
	c := &DenseCell{
		W:    tensor.New(in, out),
		B:    tensor.New(out),
		GW:   tensor.New(in, out),
		GB:   tensor.New(out),
		ReLU: relu,
	}
	std := math.Sqrt(2.0 / float64(in))
	c.W.RandNormal(rng, std)
	return c
}

// Kind implements Cell.
func (c *DenseCell) Kind() string { return "dense" }

// InDim returns the input feature dimension.
func (c *DenseCell) InDim() int { return c.W.Shape[0] }

// OutDim returns the output feature dimension.
func (c *DenseCell) OutDim() int { return c.W.Shape[1] }

// Forward implements Cell for input of shape (batch, in). All scratch
// is drawn from the cell's pooled workspace, so repeated steps at a
// stable batch size allocate nothing.
func (c *DenseCell) Forward(x *tensor.Tensor) *tensor.Tensor {
	c.x = x
	pre := c.ws.Ensure(&c.pre, x.Shape[0], c.OutDim())
	tensor.MatMulInto(pre, x, c.W)
	if !c.ReLU {
		tensor.AddBiasRows(pre, c.B)
		return pre
	}
	act := c.ws.Ensure(&c.act, pre.Shape...)
	tensor.AddBiasReluRows(act, pre, c.B)
	return act
}

// ensureGrads allocates the gradient tensors if a lazy Clone left them
// nil, sized to the current parameter shapes.
func (c *DenseCell) ensureGrads() {
	if c.GW == nil {
		c.GW = tensor.New(c.W.Shape...)
		c.GB = tensor.New(c.B.Shape...)
	}
}

// Backward implements Cell.
func (c *DenseCell) Backward(grad *tensor.Tensor) *tensor.Tensor { return c.backward(grad, true) }

// BackwardParams implements ParamBackwarder: Backward without g·Wᵀ.
func (c *DenseCell) BackwardParams(grad *tensor.Tensor) { c.backward(grad, false) }

func (c *DenseCell) backward(grad *tensor.Tensor, needInput bool) *tensor.Tensor {
	c.ensureGrads()
	g := grad
	if c.ReLU {
		g = c.ws.Ensure(&c.gbuf, grad.Shape...)
		tensor.ReluMaskInto(g, grad, c.pre)
	}
	tensor.MatMulTransAAccInto(c.GW, c.x, g)
	tensor.SumRowsAcc(c.GB, g)
	if !needInput {
		return nil
	}
	gin := c.ws.Ensure(&c.gin, g.Shape[0], c.InDim())
	tensor.MatMulTransBInto(gin, g, c.W)
	return gin
}

// ReleaseWorkspace implements WorkspaceHolder.
func (c *DenseCell) ReleaseWorkspace() { c.ws.Release() }

// Params implements Cell.
func (c *DenseCell) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads implements Cell.
func (c *DenseCell) Grads() []*tensor.Tensor {
	c.ensureGrads()
	return []*tensor.Tensor{c.GW, c.GB}
}

// Clone implements Cell: the weight buffers are shared copy-on-write
// (O(headers) until first write), gradients materialize lazily at first
// Backward/Grads, and caches are dropped.
func (c *DenseCell) Clone() Cell {
	return &DenseCell{
		W: c.W.LazyClone(), B: c.B.LazyClone(),
		ReLU: c.ReLU,
	}
}

// MACsPerSample implements Cell.
func (c *DenseCell) MACsPerSample() float64 {
	return float64(c.W.Shape[0]) * float64(c.W.Shape[1])
}

// OutUnits implements OutputWidener.
func (c *DenseCell) OutUnits() int { return c.OutDim() }

// WidenOutput implements OutputWidener: new output column j copies source
// column mapping[j] (Net2Wider duplication).
func (c *DenseCell) WidenOutput(mapping []int) {
	in, newOut := c.W.Shape[0], len(mapping)
	w := tensor.New(in, newOut)
	b := tensor.New(newOut)
	for j, src := range mapping {
		b.Data[j] = c.B.Data[src]
		for i := 0; i < in; i++ {
			w.Data[i*newOut+j] = c.W.At(i, src)
		}
	}
	c.W.Release()
	c.B.Release()
	c.W, c.B = w, b
	c.GW, c.GB = nil, nil
}

// WidenInput implements InputWidener: new input row j takes source row
// mapping[j] scaled by 1/counts[mapping[j]], preserving the function.
func (c *DenseCell) WidenInput(mapping []int, counts []int) {
	newIn, out := len(mapping), c.W.Shape[1]
	w := tensor.New(newIn, out)
	for j, src := range mapping {
		scale := tensor.Float(1.0 / float64(counts[src]))
		for k := 0; k < out; k++ {
			w.Data[j*out+k] = c.W.At(src, k) * scale
		}
	}
	c.W.Release()
	c.W = w
	c.GW, c.GB = nil, nil
}

// IdentityLike implements IdentityInserter: a square dense cell initialized
// to the identity. With ReLU it preserves the function exactly because the
// predecessor's ReLU output is non-negative.
func (c *DenseCell) IdentityLike() Cell {
	n := c.OutDim()
	id := &DenseCell{
		W:    tensor.New(n, n),
		B:    tensor.New(n),
		GW:   tensor.New(n, n),
		GB:   tensor.New(n),
		ReLU: true,
	}
	for i := 0; i < n; i++ {
		id.W.Set(i, i, 1)
	}
	return id
}
