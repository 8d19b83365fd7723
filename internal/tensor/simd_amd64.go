//go:build amd64

package tensor

// The assembly behind the float32 tiers: the YMM (AVX2+FMA) and ZMM
// (AVX-512F) forms of the micro-kernels axpy, axpy4, dot and dot4 and
// the YMM 4-row tile (simd_amd64.s), which the avx2 tier's loop nests
// and the attention kernels call on lengths that are multiples of 8;
// the avx512 tier's whole-product GEMMs (gemm_amd64.s); and the ZMM
// softmax rows (softmax_amd64.s). The tier probe below is CPUID plus
// XGETBV. Operands may overlap only exactly (dst == src), as for the Go
// kernels.

// simdMax is the highest dispatch level this host supports.
var simdMax = detectSIMD()

func detectSIMD() SIMDLevel {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return SIMDGeneric
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsave, avx, fma = 1 << 27, 1 << 28, 1 << 12
	if c&osxsave == 0 || c&avx == 0 || c&fma == 0 {
		return SIMDGeneric
	}
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 {
		return SIMDGeneric // OS does not save XMM+YMM state
	}
	_, b, _, _ := cpuid(7, 0)
	if b&(1<<5) == 0 { // AVX2
		return SIMDGeneric
	}
	// AVX-512F additionally needs the OS to save opmask, ZMM_Hi256,
	// and Hi16_ZMM state (XCR0 bits 5..7).
	if b&(1<<16) != 0 && xcr0&0xe6 == 0xe6 {
		return SIMDAVX512
	}
	return SIMDAVX2
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func axpyAsm(dst, src *float32, alpha float32, n int)

//go:noescape
func axpy4Asm(dst, s0, s1, s2, s3 *float32, a0, a1, a2, a3 float32, n int)

//go:noescape
func dotAsm(a, b *float32, n int) float32

//go:noescape
func dot4Asm(a, b0, b1, b2, b3 *float32, n int) (r0, r1, r2, r3 float32)

//go:noescape
func gemm4RowsAsm(c *float32, cs int, a *float32, as int, b *float32, bs int, kq, w8 int)

//go:noescape
func axpyAsm512(dst, src *float32, alpha float32, n int)

//go:noescape
func axpy4Asm512(dst, s0, s1, s2, s3 *float32, a0, a1, a2, a3 float32, n int)

//go:noescape
func dotAsm512(a, b *float32, n int) float32

//go:noescape
func dot4Asm512(a, b0, b1, b2, b3 *float32, n int) (r0, r1, r2, r3 float32)

// zmmGemm is the avx512 tier's products, one gemm_amd64.s call each
// after a bounds check. A@Bᵀ below k = 8 runs the Go body: its dot
// forms have no vector part there.
var zmmGemm = gemmKernels{
	acc: func(c, a, b []float32, m, k, n int) { gemmZMM(c, a, b, m, k, n, k, 1, m&^3) },
	ta:  func(c, a, b []float32, k, m, n int) { gemmZMM(c, a, b, m, k, n, 1, m, 0) },
	tb: func(c, a, b []float32, m, k, n int) {
		if k < 8 || m == 0 || n == 0 {
			gemmTBAcc(c, a, b, m, k, n)
			return
		}
		_, _, _ = c[m*n-1], a[m*k-1], b[n*k-1]
		gemmTBAsm512(&c[0], &a[0], &b[0], m, k, n)
	},
}

// gemmZMM checks that the operands hold the elements the kernel touches
// (C m×n, A m×k, B k×n) and runs it.
func gemmZMM(c, a, b []float32, m, k, n, ai, ap, tile int) {
	if m == 0 || k == 0 || n == 0 {
		return
	}
	_, _, _ = c[m*n-1], a[m*k-1], b[k*n-1]
	gemmAsm512(&c[0], &a[0], &b[0], m, k, n, ai, ap, tile)
}

// gemmAsm512 computes C += A·B with A[i][p] at a[i·ai+p·ap]; rows below
// tile (a multiple of 4; ap = 1) run as 4-row FMA tiles.
//
//go:noescape
func gemmAsm512(c, a, b *float32, m, k, n, ai, ap, tile int)

// gemmTBAsm512 computes C += A·Bᵀ for B n×k, k ≥ 8.
//
//go:noescape
func gemmTBAsm512(c, a, b *float32, m, k, n int)

// softmaxRowsAsm512 writes the scaled softmax of up to rows rows of cols
// ≥ 1 columns and returns how many it wrote: it stops, unwritten, at the
// first row the scalar code must take (softmax_amd64.s).
//
//go:noescape
func softmaxRowsAsm512(dst, src *float32, rows, cols int, alpha float64) int

// expAsm512 replaces each of the eight values with the softmax kernel's
// lane exponent (softmax_amd64.s); the tests hold it to math.Exp.
//
//go:noescape
func expAsm512(x *[8]float64)
