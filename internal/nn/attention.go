package nn

import (
	"fmt"
	"math"
	"math/rand"

	"fedtrans/internal/tensor"
)

// AttentionCell is a simplified multi-head transformer encoder block:
// self-attention with a residual connection followed by a two-layer
// feed-forward network with a residual connection. Layer normalization is
// omitted for tractability of the hand-written backward pass; the block
// remains a faithful "Cell" for the paper's Table 4 (ViT generality)
// experiment because transformation operates on block structure, not on
// normalization.
//
// Inputs and outputs are rank-3 tensors (batch, tokens, dim). The model
// dimension is fixed; widening is internal (feed-forward hidden width),
// and deepening inserts an identity block whose projections are zero so
// the residuals pass the input through unchanged. With H heads the
// projected Q/K/V activations are transposed into head-major
// (batch·H, tokens, dim/H) buffers so the score/attention products run
// on the same strided-batch kernels with a leading extent of batch·H
// and a per-head 1/sqrt(dim/H) score scale; at H = 1 the transposes
// vanish into pure views and the cell computes bit-identically to the
// historical single-head block.
type AttentionCell struct {
	Wq, Wk, Wv, Wo *tensor.Tensor // (D, D)
	W1             *tensor.Tensor // (D, F)
	B1             *tensor.Tensor // (F)
	W2             *tensor.Tensor // (F, D)
	B2             *tensor.Tensor // (D)

	GWq, GWk, GWv, GWo *tensor.Tensor
	GW1, GB1, GW2, GB2 *tensor.Tensor

	tokens int // expected sequence length (for MACs accounting)
	heads  int // head count H (0 behaves as 1 for zero-value compat)

	// Batched forward caches: activations for the whole batch are kept
	// as single (batch·tokens, dim)-shaped workspace tensors, the
	// block-diagonal score/attention matrices as (batch·H, tokens,
	// tokens) tensors consumed by the strided-batch GEMM kernels (dS
	// holds the batched score gradient in Backward), and — only when
	// H > 1 — the head-major (batch·H, tokens, dim/H) transposes of the
	// Q/K/V/context activations and their gradients.
	x                                *tensor.Tensor
	q, k, v, attn, h, x1             *tensor.Tensor
	qh, kh, vh, hh                   *tensor.Tensor
	pre1, u                          *tensor.Tensor
	o, f2, out                       *tensor.Tensor
	dU, dx1, dH, dS, dQ, dK, dV, gin *tensor.Tensor
	dQh, dKh, dVh, dHh               *tensor.Tensor

	ws    tensor.Workspace
	views viewSet
}

// NewAttentionCell returns a single-head attention block with model dim
// d and feed-forward hidden width ff, operating on sequences of the
// given length.
func NewAttentionCell(d, ff, tokens int, rng *rand.Rand) *AttentionCell {
	return NewAttentionCellHeads(d, ff, tokens, 1, rng)
}

// NewAttentionCellHeads returns an attention block with heads attention
// heads of width d/heads each. heads must be positive and divide the
// model dimension. Parameter shapes are independent of the head count —
// heads only changes how the score/attention products partition the
// projected activations — so any two head counts share the wire format.
func NewAttentionCellHeads(d, ff, tokens, heads int, rng *rand.Rand) *AttentionCell {
	if heads < 1 {
		panic("nn: attention head count must be positive")
	}
	if d%heads != 0 {
		panic(fmt.Sprintf("nn: attention model dim %d not divisible by %d heads", d, heads))
	}
	c := &AttentionCell{tokens: tokens, heads: heads}
	initW := func(r, cc int) *tensor.Tensor {
		t := tensor.New(r, cc)
		t.RandNormal(rng, math.Sqrt(1.0/float64(r)))
		return t
	}
	c.Wq, c.Wk, c.Wv, c.Wo = initW(d, d), initW(d, d), initW(d, d), initW(d, d)
	c.W1, c.W2 = initW(d, ff), initW(ff, d)
	c.B1, c.B2 = tensor.New(ff), tensor.New(d)
	c.allocGrads()
	return c
}

func (c *AttentionCell) allocGrads() {
	c.GWq = tensor.New(c.Wq.Shape...)
	c.GWk = tensor.New(c.Wk.Shape...)
	c.GWv = tensor.New(c.Wv.Shape...)
	c.GWo = tensor.New(c.Wo.Shape...)
	c.GW1 = tensor.New(c.W1.Shape...)
	c.GB1 = tensor.New(c.B1.Shape...)
	c.GW2 = tensor.New(c.W2.Shape...)
	c.GB2 = tensor.New(c.B2.Shape...)
}

// ensureGrads allocates the gradient tensors if a lazy Clone left them
// nil, sized to the current parameter shapes.
func (c *AttentionCell) ensureGrads() {
	if c.GWq == nil {
		c.allocGrads()
	}
}

// Kind implements Cell.
func (c *AttentionCell) Kind() string { return "attention" }

// Dim returns the model dimension.
func (c *AttentionCell) Dim() int { return c.Wq.Shape[0] }

// FF returns the feed-forward hidden width.
func (c *AttentionCell) FF() int { return c.W1.Shape[1] }

// Heads returns the attention head count (1 for a zero-value or
// legacy-deserialized cell).
func (c *AttentionCell) Heads() int {
	if c.heads < 1 {
		return 1
	}
	return c.heads
}

// splitHeads transposes a head-interleaved (batch·t, H·dh) activation
// into the head-major (batch·H, t, dh) layout the strided-batch kernels
// consume: token row (b, s) contributes its h-th dh-wide slice to batch
// item b·H+h.
func splitHeads(dst, src []tensor.Float, batch, t, heads, dh int) {
	d := heads * dh
	for b := 0; b < batch; b++ {
		for h := 0; h < heads; h++ {
			for s := 0; s < t; s++ {
				so := (b*t+s)*d + h*dh
				do := ((b*heads+h)*t + s) * dh
				copy(dst[do:do+dh], src[so:so+dh])
			}
		}
	}
}

// mergeHeads is the inverse transpose of splitHeads: head-major
// (batch·H, t, dh) back to head-interleaved (batch·t, H·dh).
func mergeHeads(dst, src []tensor.Float, batch, t, heads, dh int) {
	d := heads * dh
	for b := 0; b < batch; b++ {
		for h := 0; h < heads; h++ {
			for s := 0; s < t; s++ {
				so := ((b*heads+h)*t + s) * dh
				do := (b*t+s)*d + h*dh
				copy(dst[do:do+dh], src[so:so+dh])
			}
		}
	}
}

// Forward implements Cell for input (batch, tokens, dim). The token
// projections (Q, K, V, output, and both feed-forward layers) are
// batched into single GEMMs over a (batch·tokens, dim) view of the
// input, and the block-diagonal score/attention products run as single
// strided-batch GEMMs over (batch·H, tokens, dim/H) head-major views —
// no per-item loop remains. The per-head 1/sqrt(dim/H) score scale is
// folded into the batched softmax pass. All scratch is pooled workspace
// memory; at H = 1 the head transposes collapse to views and the pass
// is bit-identical to the historical single-head cell.
func (c *AttentionCell) Forward(x *tensor.Tensor) *tensor.Tensor {
	batch, t, d := x.Shape[0], x.Shape[1], x.Shape[2]
	c.tokens = t
	c.x = x
	n2 := batch * t
	ff := c.FF()
	heads := c.Heads()
	dh := d / heads
	c.views.reset()
	x2 := c.views.of(x.Data, n2, d)
	q := c.ws.Ensure(&c.q, n2, d)
	k := c.ws.Ensure(&c.k, n2, d)
	v := c.ws.Ensure(&c.v, n2, d)
	tensor.MatMulInto(q, x2, c.Wq)
	tensor.MatMulInto(k, x2, c.Wk)
	tensor.MatMulInto(v, x2, c.Wv)
	attn := c.ws.Ensure(&c.attn, batch*heads, t, t)
	h := c.ws.Ensure(&c.h, n2, d)
	var q3, k3, v3, h3 *tensor.Tensor
	if heads == 1 {
		q3 = c.views.of(q.Data, batch, t, d)
		k3 = c.views.of(k.Data, batch, t, d)
		v3 = c.views.of(v.Data, batch, t, d)
		h3 = c.views.of(h.Data, batch, t, d)
	} else {
		q3 = c.ws.Ensure(&c.qh, batch*heads, t, dh)
		k3 = c.ws.Ensure(&c.kh, batch*heads, t, dh)
		v3 = c.ws.Ensure(&c.vh, batch*heads, t, dh)
		h3 = c.ws.Ensure(&c.hh, batch*heads, t, dh)
		splitHeads(q3.Data, q.Data, batch, t, heads, dh)
		splitHeads(k3.Data, k.Data, batch, t, heads, dh)
		splitHeads(v3.Data, v.Data, batch, t, heads, dh)
	}
	tensor.BatchedMatMulTransBInto(attn, q3, k3)
	tensor.BatchedSoftmaxInto(attn, attn, 1.0/math.Sqrt(float64(dh)))
	tensor.BatchedMatMulInto(h3, attn, v3)
	if heads > 1 {
		mergeHeads(h.Data, h3.Data, batch, t, heads, dh)
	}
	o := c.ws.Ensure(&c.o, n2, d)
	tensor.MatMulInto(o, h, c.Wo)
	x1 := c.ws.Ensure(&c.x1, n2, d)
	tensor.AddScaledInto(x1, x2, o, 1)
	pre1 := c.ws.Ensure(&c.pre1, n2, ff)
	tensor.MatMulInto(pre1, x1, c.W1)
	u := c.ws.Ensure(&c.u, n2, ff)
	tensor.AddBiasReluRows(u, pre1, c.B1)
	f2 := c.ws.Ensure(&c.f2, n2, d)
	tensor.MatMulInto(f2, u, c.W2)
	tensor.AddBiasRows(f2, c.B2)
	out := c.ws.Ensure(&c.out, batch, t, d)
	tensor.AddScaledInto(out, x1, f2, 1)
	return out
}

// Backward implements Cell.
func (c *AttentionCell) Backward(grad *tensor.Tensor) *tensor.Tensor { return c.backward(grad, true) }

// BackwardParams implements ParamBackwarder: Backward without the three
// dQ/dK/dV·Wᵀ products and the residual add of the input gradient.
func (c *AttentionCell) BackwardParams(grad *tensor.Tensor) { c.backward(grad, false) }

// backward is the one backward body. Like Forward, the score/attention
// gradient products run as strided-batch GEMMs over head-major
// (batch·H, tokens, dim/H) views, and the softmax Jacobian product (with
// the folded per-head 1/sqrt(dim/H) scale) is one batched kernel call
// over all score blocks.
func (c *AttentionCell) backward(grad *tensor.Tensor, needInput bool) *tensor.Tensor {
	c.ensureGrads()
	batch, t, d := grad.Shape[0], grad.Shape[1], grad.Shape[2]
	n2 := batch * t
	ff := c.FF()
	heads := c.Heads()
	dh := d / heads
	invSqrt := 1.0 / math.Sqrt(float64(dh))
	c.views.reset()
	dy := c.views.of(grad.Data, n2, d)
	// FFN backward: y = x1 + (relu(x1 W1 + b1)) W2 + b2.
	dU := c.ws.Ensure(&c.dU, n2, ff)
	tensor.MatMulTransBInto(dU, dy, c.W2)
	tensor.ReluMask(dU, c.pre1)
	tensor.MatMulTransAAccInto(c.GW2, c.u, dy)
	tensor.SumRowsAcc(c.GB2, dy)
	tensor.SumRowsAcc(c.GB1, dU)
	tensor.MatMulTransAAccInto(c.GW1, c.x1, dU)
	dx1 := c.ws.Ensure(&c.dx1, n2, d)
	tensor.MatMulTransBInto(dx1, dU, c.W1)
	tensor.AddScaledInto(dx1, dy, dx1, 1)
	// Attention backward: x1 = x + (A V) Wo, with dO = dx1.
	tensor.MatMulTransAAccInto(c.GWo, c.h, dx1)
	dH := c.ws.Ensure(&c.dH, n2, d)
	tensor.MatMulTransBInto(dH, dx1, c.Wo)
	dQ := c.ws.Ensure(&c.dQ, n2, d)
	dK := c.ws.Ensure(&c.dK, n2, d)
	dV := c.ws.Ensure(&c.dV, n2, d)
	dA := c.ws.Ensure(&c.dS, batch*heads, t, t)
	var q3, k3, v3, dH3, dQ3, dK3, dV3 *tensor.Tensor
	if heads == 1 {
		q3 = c.views.of(c.q.Data, batch, t, d)
		k3 = c.views.of(c.k.Data, batch, t, d)
		v3 = c.views.of(c.v.Data, batch, t, d)
		dH3 = c.views.of(dH.Data, batch, t, d)
		dQ3 = c.views.of(dQ.Data, batch, t, d)
		dK3 = c.views.of(dK.Data, batch, t, d)
		dV3 = c.views.of(dV.Data, batch, t, d)
	} else {
		// Forward cached the head-major Q/K/V transposes; only the
		// incoming context gradient needs a fresh split.
		q3, k3, v3 = c.qh, c.kh, c.vh
		dH3 = c.ws.Ensure(&c.dHh, batch*heads, t, dh)
		dQ3 = c.ws.Ensure(&c.dQh, batch*heads, t, dh)
		dK3 = c.ws.Ensure(&c.dKh, batch*heads, t, dh)
		dV3 = c.ws.Ensure(&c.dVh, batch*heads, t, dh)
		splitHeads(dH3.Data, dH.Data, batch, t, heads, dh)
	}
	tensor.BatchedMatMulTransBInto(dA, dH3, v3)
	tensor.BatchedMatMulTransAInto(dV3, c.attn, dH3)
	tensor.BatchedSoftmaxBackwardInto(dA, c.attn, dA, invSqrt)
	tensor.BatchedMatMulInto(dQ3, dA, k3)
	tensor.BatchedMatMulTransAInto(dK3, dA, q3)
	if heads > 1 {
		mergeHeads(dQ.Data, dQ3.Data, batch, t, heads, dh)
		mergeHeads(dK.Data, dK3.Data, batch, t, heads, dh)
		mergeHeads(dV.Data, dV3.Data, batch, t, heads, dh)
	}
	x2 := c.views.of(c.x.Data, n2, d)
	tensor.MatMulTransAAccInto(c.GWq, x2, dQ)
	tensor.MatMulTransAAccInto(c.GWk, x2, dK)
	tensor.MatMulTransAAccInto(c.GWv, x2, dV)
	if !needInput {
		return nil
	}
	gin := c.ws.Ensure(&c.gin, batch, t, d)
	gin2 := c.views.of(gin.Data, n2, d)
	tensor.MatMulTransBInto(gin2, dQ, c.Wq)
	tensor.MatMulTransBAccInto(gin2, dK, c.Wk)
	tensor.MatMulTransBAccInto(gin2, dV, c.Wv)
	tensor.AddScaledInto(gin2, dx1, gin2, 1)
	return gin
}

// ReleaseWorkspace implements WorkspaceHolder.
func (c *AttentionCell) ReleaseWorkspace() { c.ws.Release() }

// Params implements Cell.
func (c *AttentionCell) Params() []*tensor.Tensor {
	return []*tensor.Tensor{c.Wq, c.Wk, c.Wv, c.Wo, c.W1, c.B1, c.W2, c.B2}
}

// Grads implements Cell.
func (c *AttentionCell) Grads() []*tensor.Tensor {
	c.ensureGrads()
	return []*tensor.Tensor{c.GWq, c.GWk, c.GWv, c.GWo, c.GW1, c.GB1, c.GW2, c.GB2}
}

// Clone implements Cell: weight buffers are shared copy-on-write,
// gradients materialize lazily, caches are dropped.
func (c *AttentionCell) Clone() Cell {
	return &AttentionCell{
		Wq: c.Wq.LazyClone(), Wk: c.Wk.LazyClone(), Wv: c.Wv.LazyClone(), Wo: c.Wo.LazyClone(),
		W1: c.W1.LazyClone(), B1: c.B1.LazyClone(), W2: c.W2.LazyClone(), B2: c.B2.LazyClone(),
		tokens: c.tokens,
		heads:  c.heads,
	}
}

// MACsPerSample implements Cell. The count is itemized per pass so the
// batched score/attention products are accounted explicitly (they are
// quadratic in the sequence length, unlike every projection):
//
//	qkv:    3·t·d²  — Q, K, V token projections
//	scores:   t²·d  — batched Q·Kᵀ (H blocks of t²·d/H each)
//	attnV:    t²·d  — batched A·V (likewise head-partitioned)
//	outPrj:   t·d²  — attention output projection Wo
//	ffn:    2·t·d·f — the two feed-forward layers
//
// The head count does not appear: H heads each cost t²·(d/H) per
// quadratic product, so the total is t²·d for any H.
//
// using the sequence length of the most recent Forward (the
// construction-time length until then).
func (c *AttentionCell) MACsPerSample() float64 {
	t := float64(c.tokens)
	d := float64(c.Dim())
	f := float64(c.FF())
	qkv := 3 * t * d * d
	scores := t * t * d
	attnV := t * t * d
	outPrj := t * d * d
	ffn := 2 * t * d * f
	return qkv + scores + attnV + outPrj + ffn
}

// WidenSelf implements SelfWidener by Net2Wider-expanding the feed-forward
// hidden width; interface dimensions are unchanged and the function is
// preserved.
func (c *AttentionCell) WidenSelf(factor float64, rng *rand.Rand) {
	oldFF := c.FF()
	newFF := int(math.Ceil(float64(oldFF) * factor))
	if newFF <= oldFF {
		newFF = oldFF + 1
	}
	mapping, counts := WidenMapping(oldFF, newFF, rng)
	d := c.Dim()
	// W1 (d, ff): widen output columns; B1 likewise.
	w1 := tensor.New(d, newFF)
	b1 := tensor.New(newFF)
	for j, src := range mapping {
		b1.Data[j] = c.B1.Data[src]
		for i := 0; i < d; i++ {
			w1.Data[i*newFF+j] = c.W1.At(i, src)
		}
	}
	// W2 (ff, d): widen input rows with 1/count scaling.
	w2 := tensor.New(newFF, d)
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

// IdentityLike implements IdentityInserter: the new block's Wo and W2 (and
// biases) are zero so both residual branches add nothing — the block is an
// exact identity. Wq/Wk/Wv/W1 keep small random values so training can
// break symmetry immediately.
func (c *AttentionCell) IdentityLike() Cell {
	rng := rand.New(rand.NewSource(int64(c.Dim())*1_000_003 + int64(c.FF())))
	id := NewAttentionCellHeads(c.Dim(), c.FF(), c.tokens, c.Heads(), rng)
	id.Wo.Zero()
	id.W2.Zero()
	id.B1.Zero()
	id.B2.Zero()
	return id
}
