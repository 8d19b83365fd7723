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

func dotAsm512(a, b *float32, n int) float32 { panic("tensor: no simd") }

func dot4Asm512(a, b0, b1, b2, b3 *float32, n int) (r0, r1, r2, r3 float32) {
	panic("tensor: no simd")
}

// softmaxRowsAsm512 writes no row: every row takes the scalar code.
func softmaxRowsAsm512(dst, src *float32, rows, cols int, alpha float64) int { return 0 }

func scoresZMM(s, x, y []Float, t, dh, ld int) { panic("tensor: no simd") }

func rowsZMM(c, w []Float, wi, wp int, y []Float, t, dh, ld int) { panic("tensor: no simd") }

func im2colAsm512(dst, src *float32, inCh, ph, pw, k, s, oh, ow, tail int) {
	panic("tensor: no simd")
}

func col2imAsm512(plane, col *float32, inCh, ph, pw, k, s, oh, ow int) { panic("tensor: no simd") }

func reluMaskAsm512(dst, src, pre *float32, n int) { panic("tensor: no simd") }

func addChannelBiasReluAsm512(act, pre, bias *float32, ch, n int) { panic("tensor: no simd") }

func copyPlanesAsm512(dst, src *float32, planes, rows, n, dstRow, srcRow, dstPlane, srcPlane int) {
	panic("tensor: no simd")
}

func fillRowsAsm512(dst, vals *float32, rows, n int, scale float32) { panic("tensor: no simd") }

func addScaledAsm512(dst, a, b *float32, alpha float32, n int) { panic("tensor: no simd") }

func biasRowsZMM(act, pre, bias []Float) bool { panic("tensor: no simd") }

func sumRowsZMM(dst, src []Float, cols int, scale Float) { panic("tensor: no simd") }

func softmaxBack8Asm512(ds, a *float32, alpha float32) { panic("tensor: no simd") }
