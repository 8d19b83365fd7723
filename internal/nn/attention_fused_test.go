package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedtrans/internal/tensor"
)

// The fused attention kernel against the composition it replaced. The
// cell used to copy Q/K/V into head-major (batch·H, t, dh) buffers, run
// the score, softmax and context products as strided-batch kernels over
// them and copy the results back. That composition lives on here only,
// as the oracle: the fused cell must reproduce it bit for bit — output,
// attention cache, dQ/dK/dV, input gradient and every parameter
// gradient — at every kernel tier the host has.

// oracleSplit copies a head-interleaved (batch·t, H·dh) activation into
// a head-major (batch·H, t, dh) tensor: token row (b, s) gives its h-th
// dh-wide slice to block b·H+h.
func oracleSplit(src []tensor.Float, batch, t, heads, dh int) *tensor.Tensor {
	dst := tensor.New(batch*heads, t, dh)
	d := heads * dh
	for b := 0; b < batch; b++ {
		for h := 0; h < heads; h++ {
			for s := 0; s < t; s++ {
				copy(dst.Data[((b*heads+h)*t+s)*dh:][:dh], src[(b*t+s)*d+h*dh:][:dh])
			}
		}
	}
	return dst
}

// oracleMerge is the inverse copy of oracleSplit.
func oracleMerge(dst []tensor.Float, src *tensor.Tensor, batch, t, heads, dh int) {
	d := heads * dh
	for b := 0; b < batch; b++ {
		for h := 0; h < heads; h++ {
			for s := 0; s < t; s++ {
				copy(dst[(b*t+s)*d+h*dh:][:dh], src.Data[((b*heads+h)*t+s)*dh:][:dh])
			}
		}
	}
}

// oracleBatchedTransA is dst[i] = a[i]ᵀ·b[i] per block, one rank-2 call
// each — what the strided-batch Aᵀ·B kernel ran.
func oracleBatchedTransA(dst, a, b *tensor.Tensor) {
	n, k, m, w := a.Shape[0], a.Shape[1], a.Shape[2], b.Shape[2]
	for i := 0; i < n; i++ {
		tensor.MatMulTransAInto(tensor.FromSlice(dst.Data[i*m*w:][:m*w], m, w),
			tensor.FromSlice(a.Data[i*k*m:][:k*m], k, m), tensor.FromSlice(b.Data[i*k*w:][:k*w], k, w))
	}
}

// oracleSoftmaxBackward overwrites g with attn ⊙ (g − ⟨attn_row, g_row⟩)·alpha
// row by row.
func oracleSoftmaxBackward(attn, g []tensor.Float, cols int, alpha tensor.Float) {
	for off := 0; off < len(g); off += cols {
		arow, grow := attn[off:off+cols], g[off:off+cols]
		dot := tensor.Dot(arow, grow)
		for j := range grow {
			grow[j] = arow[j] * (grow[j] - dot) * alpha
		}
	}
}

// oracleRun is everything one forward/backward of the oracle cell
// produces.
type oracleRun struct {
	out, attn, dQ, dK, dV, gin *tensor.Tensor
	grads                      []*tensor.Tensor // Cell.Grads order
}

// oracleAttention runs c's forward on x and backward on grad through the
// historical head-major composition, leaving c untouched.
func oracleAttention(c *AttentionCell, x, grad *tensor.Tensor) oracleRun {
	batch, t, d := x.Shape[0], x.Shape[1], x.Shape[2]
	n2, ff, heads := batch*t, c.FF(), c.Heads()
	dh := d / heads
	invSqrt := 1.0 / math.Sqrt(float64(dh))
	x2 := tensor.FromSlice(x.Data, n2, d)

	q, k, v := tensor.New(n2, d), tensor.New(n2, d), tensor.New(n2, d)
	tensor.MatMulInto(q, x2, c.Wq)
	tensor.MatMulInto(k, x2, c.Wk)
	tensor.MatMulInto(v, x2, c.Wv)
	q3, k3, v3 := oracleSplit(q.Data, batch, t, heads, dh), oracleSplit(k.Data, batch, t, heads, dh), oracleSplit(v.Data, batch, t, heads, dh)
	attn := tensor.New(batch*heads, t, t)
	tensor.BatchedMatMulTransBInto(attn, q3, k3)
	tensor.BatchedSoftmaxInto(attn, attn, invSqrt)
	h3 := tensor.New(batch*heads, t, dh)
	tensor.BatchedMatMulInto(h3, attn, v3)
	h := tensor.New(n2, d)
	oracleMerge(h.Data, h3, batch, t, heads, dh)
	o := tensor.New(n2, d)
	tensor.MatMulInto(o, h, c.Wo)
	x1 := tensor.New(n2, d)
	tensor.AddScaledInto(x1, x2, o, 1)
	pre1, u := tensor.New(n2, ff), tensor.New(n2, ff)
	tensor.MatMulInto(pre1, x1, c.W1)
	tensor.AddBiasReluRows(u, pre1, c.B1)
	f2 := tensor.New(n2, d)
	tensor.MatMulInto(f2, u, c.W2)
	tensor.AddBiasRows(f2, c.B2)
	out := tensor.New(batch, t, d)
	tensor.AddScaledInto(out, x1, f2, 1)

	r := oracleRun{out: out, attn: attn}
	for _, p := range c.Params() {
		r.grads = append(r.grads, tensor.New(p.Shape...))
	}
	gWq, gWk, gWv, gWo, gW1, gB1, gW2, gB2 := r.grads[0], r.grads[1], r.grads[2], r.grads[3], r.grads[4], r.grads[5], r.grads[6], r.grads[7]
	dy := tensor.FromSlice(grad.Data, n2, d)
	dU := tensor.New(n2, ff)
	tensor.MatMulTransBInto(dU, dy, c.W2)
	tensor.ReluMask(dU, pre1)
	tensor.MatMulTransAAccInto(gW2, u, dy)
	tensor.SumRowsAcc(gB2, dy)
	tensor.SumRowsAcc(gB1, dU)
	tensor.MatMulTransAAccInto(gW1, x1, dU)
	dx1 := tensor.New(n2, d)
	tensor.MatMulTransBInto(dx1, dU, c.W1)
	tensor.AddScaledInto(dx1, dy, dx1, 1)
	tensor.MatMulTransAAccInto(gWo, h, dx1)
	dH := tensor.New(n2, d)
	tensor.MatMulTransBInto(dH, dx1, c.Wo)
	dH3 := oracleSplit(dH.Data, batch, t, heads, dh)
	dA := tensor.New(batch*heads, t, t)
	tensor.BatchedMatMulTransBInto(dA, dH3, v3)
	dV3 := tensor.New(batch*heads, t, dh)
	oracleBatchedTransA(dV3, attn, dH3)
	oracleSoftmaxBackward(attn.Data, dA.Data, t, tensor.Float(invSqrt))
	dQ3, dK3 := tensor.New(batch*heads, t, dh), tensor.New(batch*heads, t, dh)
	tensor.BatchedMatMulInto(dQ3, dA, k3)
	oracleBatchedTransA(dK3, dA, q3)
	r.dQ, r.dK, r.dV = tensor.New(n2, d), tensor.New(n2, d), tensor.New(n2, d)
	oracleMerge(r.dQ.Data, dQ3, batch, t, heads, dh)
	oracleMerge(r.dK.Data, dK3, batch, t, heads, dh)
	oracleMerge(r.dV.Data, dV3, batch, t, heads, dh)
	tensor.MatMulTransAAccInto(gWq, x2, r.dQ)
	tensor.MatMulTransAAccInto(gWk, x2, r.dK)
	tensor.MatMulTransAAccInto(gWv, x2, r.dV)
	r.gin = tensor.New(batch, t, d)
	gin2 := tensor.FromSlice(r.gin.Data, n2, d)
	tensor.MatMulTransBInto(gin2, r.dQ, c.Wq)
	tensor.MatMulTransBAccInto(gin2, r.dK, c.Wk)
	tensor.MatMulTransBAccInto(gin2, r.dV, c.Wv)
	tensor.AddScaledInto(gin2, dx1, gin2, 1)
	return r
}

// sameBits fails on the first element whose bit pattern differs.
func sameBits(t *testing.T, what string, got, want []tensor.Float) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), oracle %v (%#x)", what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// zeroQuads counts the quads the GEMM zero skip tests: four consecutive
// zero probabilities along a row (A·V) or down a column (Aᵀ·dH).
func zeroQuads(attn *tensor.Tensor) int {
	t := attn.Shape[1]
	n := 0
	for off := 0; off < len(attn.Data); off += t * t {
		a := attn.Data[off : off+t*t]
		for i := 0; i < t; i++ {
			for p := 0; p+4 <= t; p += 4 {
				if a[i*t+p] == 0 && a[i*t+p+1] == 0 && a[i*t+p+2] == 0 && a[i*t+p+3] == 0 {
					n++
				}
				if a[p*t+i] == 0 && a[(p+1)*t+i] == 0 && a[(p+2)*t+i] == 0 && a[(p+3)*t+i] == 0 {
					n++
				}
			}
		}
	}
	return n
}

// TestAttentionFusedMatchesOracle sweeps head counts 1–8, token counts
// on both sides of the dot4/axpy4 quads and of the 16 tokens up to which
// narrow heads take the avx512 tier's block kernels, head widths below
// and at or above the 8-lane vector kernels, and inputs large enough
// that some probabilities round to exactly zero (the all-zero quad
// skip).
func TestAttentionFusedMatchesOracle(t *testing.T) {
	defer tensor.SetSIMDLevel(tensor.CurrentSIMDLevel())
	skipped := 0
	for level := tensor.SIMDGeneric; level <= tensor.SIMDSupported(); level++ {
		tensor.SetSIMDLevel(level)
		for _, d := range []int{8, 24, 32} {
			for _, heads := range []int{1, 2, 4, 8} {
				for _, tokens := range []int{1, 3, 8, 9, 16, 17} {
					for _, scale := range []float64{1, 40} {
						if d%heads != 0 {
							continue
						}
						name := fmt.Sprintf("%s/d=%d/heads=%d/t=%d/scale=%g", level, d, heads, tokens, scale)
						const batch, ff = 3, 6
						rng := rand.New(rand.NewSource(int64(1000*d + 100*heads + tokens)))
						c := NewAttentionCellHeads(d, ff, tokens, heads, rng)
						x := tensor.New(batch, tokens, d)
						x.RandNormal(rng, scale)

						ZeroGrads(c)
						out := c.Forward(x)
						grad := lossGrad(out)
						r := oracleAttention(c, x, grad)
						skipped += zeroQuads(r.attn)
						sameBits(t, name+" out", out.Data, r.out.Data)
						sameBits(t, name+" attn", c.attn.Data, r.attn.Data)
						gin := c.Backward(grad)
						sameBits(t, name+" dQ", c.dQ.Data, r.dQ.Data)
						sameBits(t, name+" dK", c.dK.Data, r.dK.Data)
						sameBits(t, name+" dV", c.dV.Data, r.dV.Data)
						sameBits(t, name+" gin", gin.Data, r.gin.Data)
						for i, g := range c.Grads() {
							sameBits(t, fmt.Sprintf("%s grad %d", name, i), g.Data, r.grads[i].Data)
						}
					}
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no all-zero probability quad: the zero skip went unexercised")
	}
}
