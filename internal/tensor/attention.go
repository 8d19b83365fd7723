package tensor

import (
	"fmt"
	"math"
)

// Fused multi-head attention over head-interleaved activations.
//
// Attention's projections leave Q, K and V as (batch·t, d) buffers whose
// token row (b, s) holds head h's dh = d/H values at [h·dh, (h+1)·dh),
// so head h of item b is t rows of dh values at stride d. The kernels
// here read and write those rows in place: for each (item, head) block
// they run scores → softmax → ·V (and the backward chain) without a
// head-major copy and without a per-block kernel dispatch.
//
// Per output element the float operations, and their order, are those
// of the strided-batch composition the kernels replace: scores and the
// score gradient are gemmTBAcc rows (dot4 per quad of columns, dot for
// the rest) into zeroed destinations; A·V, dA·K, Aᵀ·dH and dAᵀ·Q are
// gemmAcc's per-row axpy4 quads with the all-zero quad skipped, then
// axpy per remaining term. For dh < 8 the micro-kernels have no vector
// part at that length, so their generic bodies are inlined below; for
// dh ≥ 8 the kernels call dot4/dot/axpy4/axpy themselves. At the avx512
// tier a block with dh < 8 and t ≤ 16 runs scoresZMM and rowsZMM
// instead (attention_amd64.s), one call each with the lanes across the
// block's output elements: every element gets the inlined bodies'
// operations in their order, bit for bit (NaN payloads aside:
// attention_amd64.s says why). Whatever dh, the avx512 tier's softmax
// takes a block's rows eight at a time (softmax_amd64.s), and its
// backward takes an 8×8 block in one call (rows_amd64.s).

// blockKernels picks the products for (t, dh) blocks.
func blockKernels(t, dh int) (scores func(s, x, y []Float, t, dh, ld int), rows func(c, w []Float, wi, wp int, y []Float, t, dh, ld int)) {
	if simd512 && dh < 8 && t <= 16 {
		return scoresZMM, rowsZMM
	}
	return scoresAcc, rowsAcc
}

// checkAttention validates the operands of one attention call and
// returns its geometry.
func checkAttention(attn *Tensor, heads int, ops ...*Tensor) (batch, t, d, dh int) {
	if heads < 1 || attn.Rank() != 3 || attn.Shape[1] != attn.Shape[2] || attn.Shape[0]%heads != 0 {
		panic(fmt.Sprintf("tensor: attention cache shape %v for %d heads", attn.Shape, heads))
	}
	batch, t = attn.Shape[0]/heads, attn.Shape[1]
	d = ops[0].Shape[len(ops[0].Shape)-1]
	for _, x := range ops {
		if x.Rank() != 2 || x.Shape[0] != batch*t || x.Shape[1] != d || d%heads != 0 {
			panic(fmt.Sprintf("tensor: attention operand shape %v, want [%d %d] with %d heads", x.Shape, batch*t, d, heads))
		}
	}
	return batch, t, d, d / heads
}

// AttentionInto computes multi-head scaled dot-product attention on
// head-interleaved (batch·t, d) activations q, k, v: for every item b
// and head h, attn[b·H+h] = softmax(Q_bh K_bhᵀ / sqrt(dh)) and
// ctx_bh = attn[b·H+h] · V_bh. attn is the (batch·H, t, t) probability
// cache the backward pass reads. ctx and attn must not alias the inputs.
func AttentionInto(ctx, attn, q, k, v *Tensor, heads int) {
	batch, t, d, dh := checkAttention(attn, heads, ctx, q, k, v)
	ctx.EnsureOwnedDiscard()
	attn.EnsureOwnedDiscard()
	ctx.Zero()
	attn.Zero()
	alpha := 1.0 / math.Sqrt(float64(dh))
	scores, rows := blockKernels(t, dh)
	for b := 0; b < batch; b++ {
		for h := 0; h < heads; h++ {
			off := b*t*d + h*dh
			a := attn.Data[(b*heads+h)*t*t:][:t*t]
			scores(a, q.Data[off:], k.Data[off:], t, dh, d)
			softmaxRowsScaled(a, a, t, t, alpha)
			rows(ctx.Data[off:], a, t, 1, v.Data[off:], t, dh, d)
		}
	}
}

// AttentionBackwardInto is the backward pass of AttentionInto: given the
// context gradient dctx and the forward's q, k, v and attn cache, it
// writes dq, dk and dv, all (batch·t, d) and head-interleaved. ds is a
// (t, t) scratch for one block's score gradient.
func AttentionBackwardInto(dq, dk, dv, ds, attn, q, k, v, dctx *Tensor, heads int) {
	batch, t, d, dh := checkAttention(attn, heads, dq, dk, dv, q, k, v, dctx)
	if len(ds.Data) != t*t {
		panic(fmt.Sprintf("tensor: attention score scratch shape %v, want [%d %d]", ds.Shape, t, t))
	}
	for _, x := range []*Tensor{dq, dk, dv} {
		x.EnsureOwnedDiscard()
		x.Zero()
	}
	ds.EnsureOwnedDiscard() // cleared per block below
	alpha := Float(1.0 / math.Sqrt(float64(dh)))
	s := ds.Data
	scores, rows := blockKernels(t, dh)
	for b := 0; b < batch; b++ {
		for h := 0; h < heads; h++ {
			off := b*t*d + h*dh
			a := attn.Data[(b*heads+h)*t*t:][:t*t]
			clear(s)
			scores(s, dctx.Data[off:], v.Data[off:], t, dh, d) // dA = dH·Vᵀ
			rows(dv.Data[off:], a, 1, t, dctx.Data[off:], t, dh, d)
			softmaxBackBlock(s, a, t, alpha)
			rows(dq.Data[off:], s, t, 1, k.Data[off:], t, dh, d)
			rows(dk.Data[off:], s, 1, t, q.Data[off:], t, dh, d)
		}
	}
}

// softmaxBackBlock is the softmax backward of one (t, t) block of score
// gradients s in place, against its probabilities a: at the avx512 tier
// one rows_amd64.s call for t = 8, the only token count a profile
// builds, softmaxBackwardRows otherwise.
func softmaxBackBlock(s, a []Float, t int, alpha Float) {
	if simd512 && t == 8 {
		_, _ = s[63], a[63]
		softmaxBack8Asm512(&s[0], &a[0], alpha)
		return
	}
	softmaxBackwardRows(s, a, s, t, t, alpha)
}

// scoresAcc adds x_i · y_j to s[i·t+j] for the t dh-wide rows x_i =
// x[i·ld:] and y_j = y[j·ld:] — gemmTBAcc's products: dot4 per quad of
// j, dot for the j tail. Below 8 elements both run their generic
// bodies, inlined here. Each score takes one addition into a zeroed
// destination, so the loops may run quad-outer and share the y slices
// across rows.
func scoresAcc(s, x, y []Float, t, dh, ld int) {
	j := 0
	for ; j+4 <= t; j += 4 {
		y0, y1, y2, y3 := y[j*ld:][:dh], y[(j+1)*ld:][:dh], y[(j+2)*ld:][:dh], y[(j+3)*ld:][:dh]
		for i := 0; i < t; i++ {
			xi := x[i*ld:][:dh]
			var r0, r1, r2, r3 Float
			if dh >= 8 {
				r0, r1, r2, r3 = dot4(xi, y0, y1, y2, y3)
			} else {
				p := 0
				for ; p+4 <= dh; p += 4 {
					r0 += xi[p]*y0[p] + xi[p+1]*y0[p+1] + xi[p+2]*y0[p+2] + xi[p+3]*y0[p+3]
					r1 += xi[p]*y1[p] + xi[p+1]*y1[p+1] + xi[p+2]*y1[p+2] + xi[p+3]*y1[p+3]
					r2 += xi[p]*y2[p] + xi[p+1]*y2[p+1] + xi[p+2]*y2[p+2] + xi[p+3]*y2[p+3]
					r3 += xi[p]*y3[p] + xi[p+1]*y3[p+1] + xi[p+2]*y3[p+2] + xi[p+3]*y3[p+3]
				}
				for ; p < dh; p++ {
					r0 += xi[p] * y0[p]
					r1 += xi[p] * y1[p]
					r2 += xi[p] * y2[p]
					r3 += xi[p] * y3[p]
				}
			}
			srow := s[i*t+j:][:4]
			srow[0] += r0
			srow[1] += r1
			srow[2] += r2
			srow[3] += r3
		}
	}
	for ; j < t; j++ {
		yj := y[j*ld:][:dh]
		for i := 0; i < t; i++ {
			xi := x[i*ld:][:dh]
			var r Float
			if dh >= 8 {
				r = dot(xi, yj)
			} else {
				for p, v := range yj {
					r += xi[p] * v
				}
			}
			s[i*t+j] += r
		}
	}
}

// rowsAcc adds Σ_p w[i·wi+p·wp] · y_p to the dh-wide row c_i = c[i·ld:]
// for i, p < t, with y_p = y[p·ld:] — gemmAcc's per-row arithmetic:
// axpy4 per quad of p unless its four weights are zero, then axpy per
// remaining nonzero weight. Each row takes the quads in ascending p,
// so the loops run quad-outer (gemmTAAcc's order) and share the y
// slices across rows. (wi, wp) = (t, 1) reads w as stored, (1, t) as
// its transpose.
func rowsAcc(c, w []Float, wi, wp int, y []Float, t, dh, ld int) {
	p := 0
	for ; p+4 <= t; p += 4 {
		y0, y1, y2, y3 := y[p*ld:][:dh], y[(p+1)*ld:][:dh], y[(p+2)*ld:][:dh], y[(p+3)*ld:][:dh]
		for i := 0; i < t; i++ {
			o := i*wi + p*wp
			a0, a1, a2, a3 := w[o], w[o+wp], w[o+2*wp], w[o+3*wp]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			ci := c[i*ld:][:dh]
			if dh >= 8 {
				axpy4(ci, y0, y1, y2, y3, a0, a1, a2, a3)
				continue
			}
			for e := range ci {
				ci[e] += a0*y0[e] + a1*y1[e] + a2*y2[e] + a3*y3[e]
			}
		}
	}
	for ; p < t; p++ {
		yp := y[p*ld:][:dh]
		for i := 0; i < t; i++ {
			av := w[i*wi+p*wp]
			if av == 0 {
				continue
			}
			ci := c[i*ld:][:dh]
			if dh >= 8 {
				axpy(ci, yp, av)
				continue
			}
			for e, v := range yp {
				ci[e] += av * v
			}
		}
	}
}
