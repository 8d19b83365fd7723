//go:build !amd64

package tensor

// Non-amd64 targets run the portable chunked Go kernels everywhere.
// The stubs below exist only to satisfy the guarded call sites in
// gemm.go; with simdMax pinned to SIMDGeneric they are unreachable.

var simdMax = SIMDGeneric

// zmmGemm is empty: with simdMax generic, SetSIMDLevel never selects it.
var zmmGemm gemmKernels

func axpyAsm(dst, src *float32, alpha float32, n int) { panic("tensor: no simd") }

func axpy4Asm(dst, s0, s1, s2, s3 *float32, a0, a1, a2, a3 float32, n int) {
	panic("tensor: no simd")
}

func dotAsm(a, b *float32, n int) float32 { panic("tensor: no simd") }

func dot4Asm(a, b0, b1, b2, b3 *float32, n int) (r0, r1, r2, r3 float32) {
	panic("tensor: no simd")
}

func gemm4RowsAsm(c *float32, cs int, a *float32, as int, b *float32, bs int, kq, w8 int) {
	panic("tensor: no simd")
}

func axpyAsm512(dst, src *float32, alpha float32, n int) { panic("tensor: no simd") }

func axpy4Asm512(dst, s0, s1, s2, s3 *float32, a0, a1, a2, a3 float32, n int) {
	panic("tensor: no simd")
}

func dotAsm512(a, b *float32, n int) float32 { panic("tensor: no simd") }

func dot4Asm512(a, b0, b1, b2, b3 *float32, n int) (r0, r1, r2, r3 float32) {
	panic("tensor: no simd")
}

// softmaxRowsAsm512 writes no row: every row takes the scalar code.
func softmaxRowsAsm512(dst, src *float32, rows, cols int, alpha float64) int { return 0 }
