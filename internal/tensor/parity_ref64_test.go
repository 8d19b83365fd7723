package tensor_test

// The Ref64 parity sweep: every backend kernel — the rank-2 GEMM
// family, the strided-batch kernels, and the vector-lane axpy/dot
// micro-kernels — pinned against its float64 reference instantiation
// by the shared paritytest harness (random shapes, seeded RNG, both
// the assembly and the generic dispatch paths). This replaces the
// former ad-hoc per-kernel parity checks in gemm_test.go.

import (
	"math"
	"math/rand"
	"testing"

	"fedtrans/internal/tensor"
	"fedtrans/internal/tensor/paritytest"
)

// tolerances: GEMM reductions here run a few hundred unit-variance
// terms, whose float32 rounding stays well under 1e-4; softmax outputs
// live in [0,1]; axpy is element-wise.
const (
	parityGemmTol    = 1e-4
	paritySoftmaxTol = 1e-5
	parityAxpyTol    = 1e-6
	parityDotTol     = 5e-4
)

func TestKernelsAgainstRef64(t *testing.T) {
	paritytest.Run(t, []paritytest.Kernel{
		{
			Name: "MatMulInto", Tol: parityGemmTol,
			Make: func(rng *rand.Rand) (*tensor.Tensor, []*tensor.Tensor) {
				m, k, n := paritytest.Dim(rng, 1, 40), paritytest.Dim(rng, 1, 300), paritytest.Dim(rng, 1, 40)
				return tensor.New(m, n), []*tensor.Tensor{paritytest.Rand(rng, m, k), paritytest.Rand(rng, k, n)}
			},
			Run: func(dst *tensor.Tensor, ops []*tensor.Tensor) { tensor.MatMulInto(dst, ops[0], ops[1]) },
			Ref: func(ref []float64, ops []*tensor.Tensor) {
				tensor.Ref64Gemm(ref, ops[0].Widen(), ops[1].Widen(), ops[0].Shape[0], ops[0].Shape[1], ops[1].Shape[1])
			},
		},
		{
			Name: "MatMulTransAInto", Tol: parityGemmTol,
			Make: func(rng *rand.Rand) (*tensor.Tensor, []*tensor.Tensor) {
				k, m, n := paritytest.Dim(rng, 1, 300), paritytest.Dim(rng, 1, 40), paritytest.Dim(rng, 1, 40)
				return tensor.New(m, n), []*tensor.Tensor{paritytest.Rand(rng, k, m), paritytest.Rand(rng, k, n)}
			},
			Run: func(dst *tensor.Tensor, ops []*tensor.Tensor) { tensor.MatMulTransAInto(dst, ops[0], ops[1]) },
			Ref: func(ref []float64, ops []*tensor.Tensor) {
				tensor.Ref64GemmTransA(ref, ops[0].Widen(), ops[1].Widen(), ops[0].Shape[0], ops[0].Shape[1], ops[1].Shape[1])
			},
		},
		{
			Name: "MatMulTransBInto", Tol: parityGemmTol,
			Make: func(rng *rand.Rand) (*tensor.Tensor, []*tensor.Tensor) {
				m, k, n := paritytest.Dim(rng, 1, 40), paritytest.Dim(rng, 1, 300), paritytest.Dim(rng, 1, 40)
				return tensor.New(m, n), []*tensor.Tensor{paritytest.Rand(rng, m, k), paritytest.Rand(rng, n, k)}
			},
			Run: func(dst *tensor.Tensor, ops []*tensor.Tensor) { tensor.MatMulTransBInto(dst, ops[0], ops[1]) },
			Ref: func(ref []float64, ops []*tensor.Tensor) {
				tensor.Ref64GemmTransB(ref, ops[0].Widen(), ops[1].Widen(), ops[0].Shape[0], ops[0].Shape[1], ops[1].Shape[0])
			},
		},
		{
			Name: "SoftmaxInto", Tol: paritySoftmaxTol,
			Make: func(rng *rand.Rand) (*tensor.Tensor, []*tensor.Tensor) {
				r, c := paritytest.Dim(rng, 1, 30), paritytest.Dim(rng, 1, 60)
				return tensor.New(r, c), []*tensor.Tensor{paritytest.Rand(rng, r, c)}
			},
			Run: func(dst *tensor.Tensor, ops []*tensor.Tensor) { tensor.SoftmaxInto(dst, ops[0]) },
			Ref: func(ref []float64, ops []*tensor.Tensor) {
				tensor.Ref64Softmax(ref, ops[0].Widen(), ops[0].Shape[0], ops[0].Shape[1])
			},
		},
		{
			Name: "BatchedMatMulInto", Tol: parityGemmTol,
			Make: func(rng *rand.Rand) (*tensor.Tensor, []*tensor.Tensor) {
				b := paritytest.Dim(rng, 1, 6)
				m, k, n := paritytest.Dim(rng, 1, 24), paritytest.Dim(rng, 1, 100), paritytest.Dim(rng, 1, 24)
				return tensor.New(b, m, n), []*tensor.Tensor{paritytest.Rand(rng, b, m, k), paritytest.Rand(rng, b, k, n)}
			},
			Run: func(dst *tensor.Tensor, ops []*tensor.Tensor) { tensor.BatchedMatMulInto(dst, ops[0], ops[1]) },
			Ref: func(ref []float64, ops []*tensor.Tensor) {
				a, b := ops[0], ops[1]
				tensor.Ref64BatchedGemm(ref, a.Widen(), b.Widen(), a.Shape[0], a.Shape[1], a.Shape[2], b.Shape[2])
			},
		},
		{
			// operands: q, k, v (batch·t, H·dh), the attention cache the
			// kernel fills, and a 1-element tensor carrying H.
			Name: "AttentionInto", Tol: parityGemmTol,
			Make: func(rng *rand.Rand) (*tensor.Tensor, []*tensor.Tensor) {
				g := drawAttention(rng)
				n, d := g.batch*g.t, g.heads*g.dh
				return tensor.New(n, d), []*tensor.Tensor{paritytest.Rand(rng, n, d), paritytest.Rand(rng, n, d),
					paritytest.Rand(rng, n, d), tensor.New(g.batch*g.heads, g.t, g.t), g.tensor()}
			},
			Run: func(dst *tensor.Tensor, ops []*tensor.Tensor) {
				tensor.AttentionInto(dst, ops[3], ops[0], ops[1], ops[2], int(ops[4].Data[0]))
			},
			Ref: func(ref []float64, ops []*tensor.Tensor) {
				g := attentionOf(ops[3], ops[4], ops[0])
				q, k, v := ops[0].Widen(), ops[1].Widen(), ops[2].Widen()
				g.blocks(func(b, h int) {
					a := g.probs(g.gather(q, b, h), g.gather(k, b, h))
					ctx := make([]float64, g.t*g.dh)
					tensor.Ref64Gemm(ctx, a, g.gather(v, b, h), g.t, g.t, g.dh)
					g.scatter(ref, ctx, b, h)
				})
			},
		},
		{
			Name: "BatchedMatMulTransBInto", Tol: parityGemmTol,
			Make: func(rng *rand.Rand) (*tensor.Tensor, []*tensor.Tensor) {
				b := paritytest.Dim(rng, 1, 6)
				m, k, n := paritytest.Dim(rng, 1, 24), paritytest.Dim(rng, 1, 100), paritytest.Dim(rng, 1, 24)
				return tensor.New(b, m, n), []*tensor.Tensor{paritytest.Rand(rng, b, m, k), paritytest.Rand(rng, b, n, k)}
			},
			Run: func(dst *tensor.Tensor, ops []*tensor.Tensor) { tensor.BatchedMatMulTransBInto(dst, ops[0], ops[1]) },
			Ref: func(ref []float64, ops []*tensor.Tensor) {
				a, b := ops[0], ops[1]
				tensor.Ref64BatchedGemmTransB(ref, a.Widen(), b.Widen(), a.Shape[0], a.Shape[1], a.Shape[2], b.Shape[1])
			},
		},
		{
			// operands[1] is a 1-element tensor carrying the softmax
			// pre-scale alpha (drawn positive, as the kernel requires).
			Name: "BatchedSoftmaxInto", Tol: paritySoftmaxTol,
			Make: func(rng *rand.Rand) (*tensor.Tensor, []*tensor.Tensor) {
				b, r, c := paritytest.Dim(rng, 1, 6), paritytest.Dim(rng, 1, 20), paritytest.Dim(rng, 1, 50)
				alpha := tensor.FromSlice([]tensor.Float{tensor.Float(0.05 + rng.Float64())}, 1)
				return tensor.New(b, r, c), []*tensor.Tensor{paritytest.Rand(rng, b, r, c), alpha}
			},
			Run: func(dst *tensor.Tensor, ops []*tensor.Tensor) {
				tensor.BatchedSoftmaxInto(dst, ops[0], float64(ops[1].Data[0]))
			},
			Ref: func(ref []float64, ops []*tensor.Tensor) {
				s := ops[0]
				tensor.Ref64BatchedSoftmax(ref, s.Widen(), s.Shape[0]*s.Shape[1], s.Shape[2], float64(ops[1].Data[0]))
			},
		},
		{
			// operands: q, k, v, the context gradient, the forward's
			// attention cache, and a 1-element tensor carrying H; dst
			// stacks dq, dk and dv.
			Name: "AttentionBackwardInto", Tol: parityGemmTol,
			Make: func(rng *rand.Rand) (*tensor.Tensor, []*tensor.Tensor) {
				g := drawAttention(rng)
				n, d := g.batch*g.t, g.heads*g.dh
				q, k, v := paritytest.Rand(rng, n, d), paritytest.Rand(rng, n, d), paritytest.Rand(rng, n, d)
				attn := tensor.New(g.batch*g.heads, g.t, g.t)
				tensor.AttentionInto(tensor.New(n, d), attn, q, k, v, g.heads)
				return tensor.New(3, n, d), []*tensor.Tensor{q, k, v, paritytest.Rand(rng, n, d), attn, g.tensor()}
			},
			Run: func(dst *tensor.Tensor, ops []*tensor.Tensor) {
				n, d := ops[0].Shape[0], ops[0].Shape[1]
				part := func(i int) *tensor.Tensor { return tensor.FromSlice(dst.Data[i*n*d:][:n*d], n, d) }
				t := ops[4].Shape[1]
				tensor.AttentionBackwardInto(part(0), part(1), part(2), tensor.New(t, t),
					ops[4], ops[0], ops[1], ops[2], ops[3], int(ops[5].Data[0]))
			},
			Ref: func(ref []float64, ops []*tensor.Tensor) {
				g := attentionOf(ops[4], ops[5], ops[0])
				q, k, v, dctx, attn := ops[0].Widen(), ops[1].Widen(), ops[2].Widen(), ops[3].Widen(), ops[4].Widen()
				n := len(q)
				g.blocks(func(b, h int) {
					t, dh := g.t, g.dh
					a := attn[(b*g.heads+h)*t*t:][:t*t]
					qh, kh, vh, dH := g.gather(q, b, h), g.gather(k, b, h), g.gather(v, b, h), g.gather(dctx, b, h)
					dA := make([]float64, t*t)
					tensor.Ref64GemmTransB(dA, dH, vh, t, dh, t)
					for i := 0; i < t; i++ {
						arow, grow := a[i*t:(i+1)*t], dA[i*t:(i+1)*t]
						dot := tensor.Ref64Dot(arow, grow)
						for j := range grow {
							grow[j] = arow[j] * (grow[j] - dot) * g.alpha()
						}
					}
					dq, dk, dv := make([]float64, t*dh), make([]float64, t*dh), make([]float64, t*dh)
					tensor.Ref64Gemm(dq, dA, kh, t, t, dh)
					tensor.Ref64GemmTransA(dk, dA, qh, t, t, dh)
					tensor.Ref64GemmTransA(dv, a, dH, t, t, dh)
					g.scatter(ref[:n], dq, b, h)
					g.scatter(ref[n:2*n], dk, b, h)
					g.scatter(ref[2*n:], dv, b, h)
				})
			},
		},
		{
			// operands: source vector, initial destination contents,
			// 1-element alpha. dst starts as a copy of operands[1].
			Name: "Axpy", Tol: parityAxpyTol,
			Make: func(rng *rand.Rand) (*tensor.Tensor, []*tensor.Tensor) {
				n := paritytest.Dim(rng, 1, 500)
				src, dst0 := paritytest.Rand(rng, n), paritytest.Rand(rng, n)
				alpha := tensor.FromSlice([]tensor.Float{tensor.Float(rng.NormFloat64())}, 1)
				return dst0.Clone(), []*tensor.Tensor{src, dst0, alpha}
			},
			Run: func(dst *tensor.Tensor, ops []*tensor.Tensor) {
				tensor.Axpy(dst.Data, ops[0].Data, ops[2].Data[0])
			},
			Ref: func(ref []float64, ops []*tensor.Tensor) {
				copy(ref, ops[1].Widen())
				tensor.Ref64Axpy(ref, ops[0].Widen(), float64(ops[2].Data[0]))
			},
		},
		{
			Name: "Dot", Tol: parityDotTol,
			Make: func(rng *rand.Rand) (*tensor.Tensor, []*tensor.Tensor) {
				n := paritytest.Dim(rng, 1, 500)
				return tensor.New(1), []*tensor.Tensor{paritytest.Rand(rng, n), paritytest.Rand(rng, n)}
			},
			Run: func(dst *tensor.Tensor, ops []*tensor.Tensor) {
				dst.Data[0] = tensor.Dot(ops[0].Data, ops[1].Data)
			},
			Ref: func(ref []float64, ops []*tensor.Tensor) {
				ref[0] = tensor.Ref64Dot(ops[0].Widen(), ops[1].Widen())
			},
		},
	})
}

// attentionGeom is one drawn multi-head attention problem: batch items
// of t tokens, heads heads of width dh, head-interleaved in rows of
// heads·dh.
type attentionGeom struct{ batch, t, heads, dh int }

func drawAttention(rng *rand.Rand) attentionGeom {
	return attentionGeom{paritytest.Dim(rng, 1, 4), paritytest.Dim(rng, 1, 12), 1 << rng.Intn(4), paritytest.Dim(rng, 1, 12)}
}

// tensor carries H to Run and Ref as a 1-element operand.
func (g attentionGeom) tensor() *tensor.Tensor {
	return tensor.FromSlice([]tensor.Float{tensor.Float(g.heads)}, 1)
}

// attentionOf recovers the geometry from the (batch·H, t, t) cache, the
// head-count operand and a (batch·t, H·dh) activation.
func attentionOf(attn, heads, x *tensor.Tensor) attentionGeom {
	h := int(heads.Data[0])
	return attentionGeom{attn.Shape[0] / h, attn.Shape[1], h, x.Shape[1] / h}
}

func (g attentionGeom) alpha() float64 { return 1 / math.Sqrt(float64(g.dh)) }

// blocks calls fn for every (item, head) block.
func (g attentionGeom) blocks(fn func(b, h int)) {
	for b := 0; b < g.batch; b++ {
		for h := 0; h < g.heads; h++ {
			fn(b, h)
		}
	}
}

// gather copies block (b, h) of a head-interleaved float64 buffer into
// a dense (t, dh) one.
func (g attentionGeom) gather(x []float64, b, h int) []float64 {
	out := make([]float64, g.t*g.dh)
	for s := 0; s < g.t; s++ {
		copy(out[s*g.dh:(s+1)*g.dh], x[(b*g.t+s)*g.heads*g.dh+h*g.dh:])
	}
	return out
}

// scatter is gather's inverse.
func (g attentionGeom) scatter(x, block []float64, b, h int) {
	for s := 0; s < g.t; s++ {
		copy(x[(b*g.t+s)*g.heads*g.dh+h*g.dh:][:g.dh], block[s*g.dh:])
	}
}

// probs is one block's softmax(q·kᵀ/sqrt(dh)) through the float64
// reference kernels.
func (g attentionGeom) probs(q, k []float64) []float64 {
	s := make([]float64, g.t*g.t)
	tensor.Ref64GemmTransB(s, q, k, g.t, g.dh, g.t)
	tensor.Ref64BatchedSoftmax(s, s, g.t, g.t, g.alpha())
	return s
}
