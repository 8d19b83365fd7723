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
// projected Q/K/V activations stay head-interleaved — head h of token
// row (b, s) is columns [h·dim/H, (h+1)·dim/H) of the (batch·tokens, dim)
// projection — and one fused kernel (tensor.AttentionInto) runs every
// (item, head) block's scores → softmax → ·V on them in place, with a
// per-head 1/sqrt(dim/H) score scale.
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
	// as single (batch·tokens, dim)-shaped workspace tensors and the
	// attention probabilities as one (batch·H, tokens, tokens) tensor;
	// dS is the backward's one (tokens, tokens) score-gradient scratch.
	x                                *tensor.Tensor
	q, k, v, attn, h, x1             *tensor.Tensor
	pre1, u                          *tensor.Tensor
	o, f2, out                       *tensor.Tensor
	dU, dx1, dH, dS, dQ, dK, dV, gin *tensor.Tensor

	ws    tensor.Workspace
	views viewSet
}

// NewAttentionCellHeads returns an attention block with model dim d,
// feed-forward hidden width ff and heads attention heads of width
// d/heads each, operating on sequences of the given length. heads must
// be positive and divide the model dimension. Parameter shapes are independent of the head count —
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

// Forward implements Cell for input (batch, tokens, dim). The token
// projections (Q, K, V, output, and both feed-forward layers) are
// batched into single GEMMs over a (batch·tokens, dim) view of the
// input, and the attention itself is one fused call over the
// head-interleaved projections — no per-item or per-head loop remains
// here. All scratch is pooled workspace memory.
func (c *AttentionCell) Forward(x *tensor.Tensor) *tensor.Tensor {
	batch, t, d := x.Shape[0], x.Shape[1], x.Shape[2]
	c.tokens = t
	c.x = x
	n2 := batch * t
	ff := c.FF()
	heads := c.Heads()
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
	tensor.AttentionInto(h, attn, q, k, v, heads)
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

// backward is the one backward body. Like Forward, the attention part
// is one fused call: it writes dQ/dK/dV straight into their
// head-interleaved (batch·tokens, dim) buffers from the cached
// probabilities.
func (c *AttentionCell) backward(grad *tensor.Tensor, needInput bool) *tensor.Tensor {
	c.ensureGrads()
	batch, t, d := grad.Shape[0], grad.Shape[1], grad.Shape[2]
	n2 := batch * t
	ff := c.FF()
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
	dS := c.ws.Ensure(&c.dS, t, t)
	tensor.AttentionBackwardInto(dQ, dK, dV, dS, c.attn, c.q, c.k, c.v, dH, c.Heads())
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
