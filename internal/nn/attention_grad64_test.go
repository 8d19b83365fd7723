package nn

// Finite-difference verification of AttentionCell.Backward over the
// batched kernel path, against a float64 reference forward. The
// existing TestAttentionGradientCheck perturbs the float32 parameters
// directly and therefore needs a loose 3e-2 tolerance (the difference
// quotient itself is computed at backend precision); here the loss
// surface is re-evaluated entirely in float64 — built on the Ref64
// kernel entry points — so the analytic float32 gradients can be
// pinned at 1e-3.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedtrans/internal/tensor"
)

// ref64Attention is a float64 mirror of an AttentionCell's parameters
// with a from-scratch float64 forward pass (head-partitioned when the
// mirrored cell is multi-head).
type ref64Attention struct {
	d, ff, tokens, heads           int
	wq, wk, wv, wo, w1, b1, w2, b2 []float64
}

func newRef64Attention(c *AttentionCell) *ref64Attention {
	return &ref64Attention{
		d: c.Dim(), ff: c.FF(), tokens: c.tokens, heads: c.Heads(),
		wq: c.Wq.Widen(), wk: c.Wk.Widen(), wv: c.Wv.Widen(), wo: c.Wo.Widen(),
		w1: c.W1.Widen(), b1: c.B1.Widen(), w2: c.W2.Widen(), b2: c.B2.Widen(),
	}
}

// params returns the float64 parameter slices in Cell.Params order.
func (r *ref64Attention) params() [][]float64 {
	return [][]float64{r.wq, r.wk, r.wv, r.wo, r.w1, r.b1, r.w2, r.b2}
}

// loss evaluates the sum-of-squares loss of the attention forward in
// float64 for input x64 of shape (batch, tokens, d).
func (r *ref64Attention) loss(x64 []float64, batch int) float64 {
	d, ff, t := r.d, r.ff, r.tokens
	heads := r.heads
	if heads < 1 {
		heads = 1
	}
	dh := d / heads
	invSqrt := 1.0 / math.Sqrt(float64(dh))
	loss := 0.0
	for bi := 0; bi < batch; bi++ {
		x := x64[bi*t*d : (bi+1)*t*d]
		q := make([]float64, t*d)
		k := make([]float64, t*d)
		v := make([]float64, t*d)
		tensor.Ref64Gemm(q, x, r.wq, t, d, d)
		tensor.Ref64Gemm(k, x, r.wk, t, d, d)
		tensor.Ref64Gemm(v, x, r.wv, t, d, d)
		// Per-head attention over the dh-wide column slices of Q/K/V; the
		// context vectors land back in their head's column slice of h.
		h := make([]float64, t*d)
		qh := make([]float64, t*dh)
		kh := make([]float64, t*dh)
		vh := make([]float64, t*dh)
		hh := make([]float64, t*dh)
		s := make([]float64, t*t)
		a := make([]float64, t*t)
		for hd := 0; hd < heads; hd++ {
			for i := 0; i < t; i++ {
				copy(qh[i*dh:(i+1)*dh], q[i*d+hd*dh:i*d+(hd+1)*dh])
				copy(kh[i*dh:(i+1)*dh], k[i*d+hd*dh:i*d+(hd+1)*dh])
				copy(vh[i*dh:(i+1)*dh], v[i*d+hd*dh:i*d+(hd+1)*dh])
			}
			// The Ref64 GEMM entry points accumulate into their outputs.
			for i := range s {
				s[i] = 0
			}
			for i := range hh {
				hh[i] = 0
			}
			tensor.Ref64GemmTransB(s, qh, kh, t, dh, t)
			for i := range s {
				s[i] *= invSqrt
			}
			tensor.Ref64Softmax(a, s, t, t)
			tensor.Ref64Gemm(hh, a, vh, t, t, dh)
			for i := 0; i < t; i++ {
				copy(h[i*d+hd*dh:i*d+(hd+1)*dh], hh[i*dh:(i+1)*dh])
			}
		}
		o := make([]float64, t*d)
		tensor.Ref64Gemm(o, h, r.wo, t, d, d)
		x1 := make([]float64, t*d)
		for i := range x1 {
			x1[i] = x[i] + o[i]
		}
		pre := make([]float64, t*ff)
		tensor.Ref64Gemm(pre, x1, r.w1, t, d, ff)
		u := make([]float64, t*ff)
		for i := 0; i < t; i++ {
			for j := 0; j < ff; j++ {
				if p := pre[i*ff+j] + r.b1[j]; p > 0 {
					u[i*ff+j] = p
				}
			}
		}
		f := make([]float64, t*d)
		tensor.Ref64Gemm(f, u, r.w2, t, ff, d)
		for i := 0; i < t; i++ {
			for j := 0; j < d; j++ {
				out := x1[i*d+j] + f[i*d+j] + r.b2[j]
				loss += out * out
			}
		}
	}
	return loss
}

func TestAttentionBackwardAgainstRef64FD(t *testing.T) {
	for _, heads := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("heads=%d", heads), func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			const batch, tokens, d, ff = 2, 3, 4, 5
			c := NewAttentionCellHeads(d, ff, tokens, heads, rng)
			x := tensor.New(batch, tokens, d)
			x.RandNormal(rng, 1)
			out := c.Forward(x)
			ZeroGrads(c)
			gin := c.Backward(lossGrad(out))

			ref := newRef64Attention(c)
			x64 := x.Widen()
			const eps = 1e-5
			const tol = 1e-3
			fd := func(p []float64, i int) float64 {
				orig := p[i]
				p[i] = orig + eps
				lp := ref.loss(x64, batch)
				p[i] = orig - eps
				lm := ref.loss(x64, batch)
				p[i] = orig
				return (lp - lm) / (2 * eps)
			}
			params := c.Params()
			grads := c.Grads()
			for pi, rp := range ref.params() {
				for i := 0; i < params[pi].Len(); i++ {
					want := fd(rp, i)
					got := float64(grads[pi].Data[i])
					if math.Abs(got-want) > tol*(1+math.Abs(want)) {
						t.Fatalf("param %d idx %d: analytic %.8f vs float64 FD %.8f (|Δ| %.2g)",
							pi, i, got, want, math.Abs(got-want))
					}
				}
			}
			for i := range x64 {
				want := fd(x64, i)
				got := float64(gin.Data[i])
				if math.Abs(got-want) > tol*(1+math.Abs(want)) {
					t.Fatalf("input grad idx %d: analytic %.8f vs float64 FD %.8f (|Δ| %.2g)",
						i, got, want, math.Abs(got-want))
				}
			}
		})
	}
}
