package tensor

import "fmt"

// Strided-batch GEMM and softmax kernels over rank-3 tensors.
//
// A block-diagonal product — every item multiplying its own panels —
// runs here as one call over contiguous (batch, m, n) buffers: the
// per-item view bookkeeping, destination validation, COW unsharing and
// zero pass happen once per product instead of once per item, and the
// inner loops land directly on the chunked axpy4/dot4 micro-kernels in
// gemm.go. The attention cell no longer calls them (its head-interleaved
// products are the fused kernels of attention.go); they stay as the
// benchmark's layer probes and as the reference composition those
// fused kernels are tested against.
//
// Like the rank-2 kernels, every batched kernel is generic over
// float32|float64; the float64 instantiations are exported as
// Ref64Batched* and serve as the parity reference for the paritytest
// harness. A batch of zero items (constructible via FromSlice — New
// rejects zero dims) is a valid no-op for every kernel.

// checkBatched3 validates that x is rank-3 with the given shape.
func checkBatched3(x *Tensor, batch, m, n int, kind, role string) {
	if x.Rank() != 3 || x.Shape[0] != batch || x.Shape[1] != m || x.Shape[2] != n {
		panic(fmt.Sprintf("tensor: %s %s shape %v, want [%d %d %d]", kind, role, x.Shape, batch, m, n))
	}
}

// checkBatchedDst validates and prepares the destination of a batched
// GEMM: shape check, COW detach (discarding contents — the kernel
// overwrites everything), operand-alias rejection against the buffer
// the kernel will actually write, then the zero pass.
func checkBatchedDst(dst, a, b *Tensor, batch, m, n int, kind string) {
	checkBatched3(dst, batch, m, n, kind, "dst")
	dst.EnsureOwnedDiscard()
	if len(dst.Data) == 0 {
		return
	}
	if &dst.Data[0] == &a.Data[0] || &dst.Data[0] == &b.Data[0] {
		panic("tensor: " + kind + " dst must not alias an operand")
	}
	dst.Zero()
}

func batchedGemmAcc[E elem](c, a, b []E, batch, m, k, n int) {
	for bi := 0; bi < batch; bi++ {
		gemmAcc(c[bi*m*n:(bi+1)*m*n], a[bi*m*k:(bi+1)*m*k], b[bi*k*n:(bi+1)*k*n], m, k, n)
	}
}

func batchedGemmTBAcc[E elem](c, a, b []E, batch, m, k, n int) {
	for bi := 0; bi < batch; bi++ {
		gemmTBAcc(c[bi*m*n:(bi+1)*m*n], a[bi*m*k:(bi+1)*m*k], b[bi*n*k:(bi+1)*n*k], m, k, n)
	}
}

// BatchedMatMulInto computes dst[b] = A[b] @ B[b] for every batch item:
// A (batch, m, k), B (batch, k, n), dst (batch, m, n). dst must not
// alias either operand.
func BatchedMatMulInto(dst, a, b *Tensor) {
	if a.Rank() != 3 || b.Rank() != 3 || a.Shape[0] != b.Shape[0] || a.Shape[2] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: batched matmul shape mismatch %v x %v", a.Shape, b.Shape))
	}
	batch, m, k, n := a.Shape[0], a.Shape[1], a.Shape[2], b.Shape[2]
	checkBatchedDst(dst, a, b, batch, m, n, "BatchedMatMulInto")
	batchedGemmAcc(dst.Data, a.Data, b.Data, batch, m, k, n)
}

// BatchedMatMulTransBInto computes dst[b] = A[b] @ B[b]ᵀ for every batch
// item: A (batch, m, k), B (batch, n, k), dst (batch, m, n) — the
// attention score product QKᵀ when m = n = tokens.
func BatchedMatMulTransBInto(dst, a, b *Tensor) {
	if a.Rank() != 3 || b.Rank() != 3 || a.Shape[0] != b.Shape[0] || a.Shape[2] != b.Shape[2] {
		panic(fmt.Sprintf("tensor: batched matmulTransB shape mismatch %v x %v", a.Shape, b.Shape))
	}
	batch, m, k, n := a.Shape[0], a.Shape[1], a.Shape[2], b.Shape[1]
	checkBatchedDst(dst, a, b, batch, m, n, "BatchedMatMulTransBInto")
	batchedGemmTBAcc(dst.Data, a.Data, b.Data, batch, m, k, n)
}

// BatchedSoftmaxInto applies the row-wise softmax of alpha*src into dst
// over a (batch, rows, cols) tensor of score blocks; alpha must be
// positive (attention passes 1/sqrt(d), fusing the score scale into
// the softmax pass). dst may alias src.
func BatchedSoftmaxInto(dst, src *Tensor, alpha float64) {
	if src.Rank() != 3 {
		panic(fmt.Sprintf("tensor: BatchedSoftmaxInto src shape %v, want rank 3", src.Shape))
	}
	checkBatched3(dst, src.Shape[0], src.Shape[1], src.Shape[2], "BatchedSoftmaxInto", "dst")
	dst.EnsureOwned()
	softmaxRowsScaled(dst.Data, src.Data, src.Shape[0]*src.Shape[1], src.Shape[2], alpha)
}

// Ref64BatchedGemm computes C[b] += A[b]@B[b] on float64 buffers — the
// reference instantiation of the strided-batch GEMM.
func Ref64BatchedGemm(c, a, b []float64, batch, m, k, n int) {
	batchedGemmAcc(c, a, b, batch, m, k, n)
}

// Ref64BatchedGemmTransB computes C[b] += A[b]@B[b]ᵀ for A (batch, m, k),
// B (batch, n, k) on float64 buffers (reference instantiation).
func Ref64BatchedGemmTransB(c, a, b []float64, batch, m, k, n int) {
	batchedGemmTBAcc(c, a, b, batch, m, k, n)
}

// Ref64BatchedSoftmax applies the scaled row-wise softmax on float64
// buffers (reference instantiation).
func Ref64BatchedSoftmax(dst, src []float64, rows, cols int, alpha float64) {
	softmaxRowsScaled(dst, src, rows, cols, alpha)
}
