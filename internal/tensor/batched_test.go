package tensor_test

// Property and edge-shape tests for the strided-batch kernel family:
// batch=1 degeneracy to the rank-2 kernels, empty batches, single-token
// blocks, non-square panels, and COW workspace-aliasing destinations.

import (
	"math/rand"
	"testing"

	"fedtrans/internal/tensor"
	"fedtrans/internal/tensor/paritytest"
)

func randT(rng *rand.Rand, shape ...int) *tensor.Tensor { return paritytest.Rand(rng, shape...) }

// batchedOps enumerates the batched GEMM variants with their operand
// shape constructors, so every property below covers both.
var batchedOps = []struct {
	name string
	// make returns operands for one product of the given block shape.
	make func(rng *rand.Rand, batch, m, k, n int) (a, b *tensor.Tensor)
	run  func(dst, a, b *tensor.Tensor)
	// flat runs the rank-2 kernel on one block (for batch=1 parity).
	flat func(dst, a, b *tensor.Tensor)
}{
	{
		name: "MatMul",
		make: func(rng *rand.Rand, batch, m, k, n int) (*tensor.Tensor, *tensor.Tensor) {
			return randT(rng, batch, m, k), randT(rng, batch, k, n)
		},
		run:  tensor.BatchedMatMulInto,
		flat: tensor.MatMulInto,
	},
	{
		name: "MatMulTransB",
		make: func(rng *rand.Rand, batch, m, k, n int) (*tensor.Tensor, *tensor.Tensor) {
			return randT(rng, batch, m, k), randT(rng, batch, n, k)
		},
		run:  tensor.BatchedMatMulTransBInto,
		flat: tensor.MatMulTransBInto,
	},
}

// flatten2 views one rank-3 batch-of-one as its rank-2 block.
func flatten2(t *tensor.Tensor) *tensor.Tensor { return t.Reshape(t.Shape[1], t.Shape[2]) }

// TestBatchedBatchOneEqualsUnbatched: a batch of one must reproduce the
// rank-2 kernel exactly (same kernels underneath — bit-identical).
func TestBatchedBatchOneEqualsUnbatched(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := [][3]int{{1, 1, 1}, {3, 5, 7}, {16, 64, 16}, {5, 130, 9}}
	for _, op := range batchedOps {
		t.Run(op.name, func(t *testing.T) {
			for _, sz := range shapes {
				m, k, n := sz[0], sz[1], sz[2]
				a, b := op.make(rng, 1, m, k, n)
				got := tensor.New(1, m, n)
				op.run(got, a, b)
				want := tensor.New(m, n)
				op.flat(want, flatten2(a), flatten2(b))
				if !tensor.Equal(flatten2(got), want, 0) {
					t.Fatalf("%s batch=1 differs from unbatched at %v", op.name, sz)
				}
			}
		})
	}
}

// TestBatchedAgainstPerItemLoop: the strided-batch call must equal the
// per-item loop over rank-2 kernels it replaced (bit-identical).
func TestBatchedAgainstPerItemLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, op := range batchedOps {
		t.Run(op.name, func(t *testing.T) {
			const batch, m, k, n = 4, 7, 33, 11
			a, b := op.make(rng, batch, m, k, n)
			got := tensor.New(batch, m, n)
			op.run(got, a, b)
			as, bs := len(a.Data)/batch, len(b.Data)/batch
			for bi := 0; bi < batch; bi++ {
				ab := tensor.FromSlice(a.Data[bi*as:(bi+1)*as], a.Shape[1], a.Shape[2])
				bb := tensor.FromSlice(b.Data[bi*bs:(bi+1)*bs], b.Shape[1], b.Shape[2])
				want := tensor.New(m, n)
				op.flat(want, ab, bb)
				gb := tensor.FromSlice(got.Data[bi*m*n:(bi+1)*m*n], m, n)
				if !tensor.Equal(gb, want, 0) {
					t.Fatalf("%s item %d differs from per-item loop", op.name, bi)
				}
			}
		})
	}
}

// TestBatchedEmptyBatch: zero-item batches (constructible via
// FromSlice) are valid no-ops for every batched kernel.
func TestBatchedEmptyBatch(t *testing.T) {
	a := tensor.FromSlice(nil, 0, 3, 4)
	b := tensor.FromSlice(nil, 0, 4, 5)
	dst := tensor.FromSlice(nil, 0, 3, 5)
	tensor.BatchedMatMulInto(dst, a, b)

	bt := tensor.FromSlice(nil, 0, 5, 4)
	tensor.BatchedMatMulTransBInto(dst, a, bt)

	s := tensor.FromSlice(nil, 0, 3, 4)
	sd := tensor.FromSlice(nil, 0, 3, 4)
	tensor.BatchedSoftmaxInto(sd, s, 0.5)
}

// TestBatchedSingleToken: tokens=1 collapses the score blocks to 1×1
// matrices — softmax of a single logit is 1, attention passes V through.
func TestBatchedSingleToken(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const batch, d = 3, 5
	q, k := randT(rng, batch, 1, d), randT(rng, batch, 1, d)
	scores := tensor.New(batch, 1, 1)
	tensor.BatchedMatMulTransBInto(scores, q, k)
	for bi := 0; bi < batch; bi++ {
		want := tensor.Dot(q.Data[bi*d:(bi+1)*d], k.Data[bi*d:(bi+1)*d])
		if got := scores.Data[bi]; got != want {
			t.Fatalf("item %d score = %v, want %v", bi, got, want)
		}
	}
	tensor.BatchedSoftmaxInto(scores, scores, 0.3)
	for bi, v := range scores.Data {
		if v != 1 {
			t.Fatalf("softmax of single token = %v at item %d, want 1", v, bi)
		}
	}
	v := randT(rng, batch, 1, d)
	h := tensor.New(batch, 1, d)
	tensor.BatchedMatMulInto(h, scores, v)
	if !tensor.Equal(h, v, 0) {
		t.Fatal("single-token attention must pass V through unchanged")
	}
}

// TestBatchedNonSquare: rectangular D×F blocks (the attention dV/dK
// shapes) against a widened float64 check at one fixed shape.
func TestBatchedNonSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const batch, m, k, n = 2, 3, 17, 29
	a, b := randT(rng, batch, m, k), randT(rng, batch, k, n)
	got := tensor.New(batch, m, n)
	tensor.BatchedMatMulInto(got, a, b)
	ref := make([]float64, batch*m*n)
	tensor.Ref64BatchedGemm(ref, a.Widen(), b.Widen(), batch, m, k, n)
	if d := tensor.MaxDiff(got, ref); d > 1e-4 {
		t.Fatalf("non-square batched GEMM vs ref64: max diff %.3g", d)
	}
}

// BenchmarkBatchedMatMul measures the attention score product QKᵀ at
// the perf-trajectory shape (batch 8, 16 tokens, dim 64): the
// strided-batch call against the per-item view loop it replaced.
func BenchmarkBatchedMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const batch, tok, d = 8, 16, 64
	q, k := randT(rng, batch, tok, d), randT(rng, batch, tok, d)
	dst := tensor.New(batch, tok, tok)
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tensor.BatchedMatMulTransBInto(dst, q, k)
		}
	})
	b.Run("peritem", func(b *testing.B) {
		b.ReportAllocs()
		qb := make([]*tensor.Tensor, batch)
		kb := make([]*tensor.Tensor, batch)
		db := make([]*tensor.Tensor, batch)
		for bi := 0; bi < batch; bi++ {
			qb[bi] = tensor.FromSlice(q.Data[bi*tok*d:(bi+1)*tok*d], tok, d)
			kb[bi] = tensor.FromSlice(k.Data[bi*tok*d:(bi+1)*tok*d], tok, d)
			db[bi] = tensor.FromSlice(dst.Data[bi*tok*tok:(bi+1)*tok*tok], tok, tok)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for bi := 0; bi < batch; bi++ {
				tensor.MatMulTransBInto(db[bi], qb[bi], kb[bi])
			}
		}
	})
}

// TestBatchedCOWDestination: a destination sharing a COW buffer must
// detach before the kernel writes — the sibling keeps its contents and
// the buffers end up distinct. This is the workspace-aliasing property
// of the attention caches (a cloned cell's workspaces must never write
// into the parent's buffers).
func TestBatchedCOWDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const batch, m, k, n = 2, 4, 6, 4
	a, b := randT(rng, batch, m, k), randT(rng, batch, k, n)

	parent := randT(rng, batch, m, n)
	orig := parent.Clone()
	dst := parent.LazyClone()
	if !dst.SharesBufferWith(parent) {
		t.Fatal("LazyClone must alias the parent buffer")
	}
	tensor.BatchedMatMulInto(dst, a, b)
	if dst.SharesBufferWith(parent) {
		t.Fatal("batched kernel wrote a shared buffer without detaching")
	}
	if !tensor.Equal(parent, orig, 0) {
		t.Fatal("batched kernel corrupted the COW sibling")
	}
	want := tensor.New(batch, m, n)
	tensor.BatchedMatMulInto(want, a, b)
	if !tensor.Equal(dst, want, 0) {
		t.Fatal("detached destination holds the wrong product")
	}

	// Same property for the softmax kernels, which preserve dst
	// contents semantics via EnsureOwned rather than a discard-detach.
	sp := randT(rng, batch, m, n)
	sOrig := sp.Clone()
	sDst := sp.LazyClone()
	tensor.BatchedSoftmaxInto(sDst, randT(rng, batch, m, n), 0.7)
	if sDst.SharesBufferWith(sp) || !tensor.Equal(sp, sOrig, 0) {
		t.Fatal("BatchedSoftmaxInto corrupted the COW sibling")
	}
}
