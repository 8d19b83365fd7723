//go:build amd64

package tensor

// The assembly behind the float32 tiers: the micro-kernels axpy and
// axpy4 (one YMM form, which both tiers call), dot and dot4 (a YMM
// (AVX2+FMA) and a ZMM (AVX-512F) form) and the YMM 4-row tile
// (simd_amd64.s), which the avx2 tier's loop nests and the attention
// kernels call on lengths that are multiples of 8;
// the avx512 tier's whole-product GEMMs (gemm_amd64.s); the ZMM
// softmax rows (softmax_amd64.s); the avx512 tier's attention block
// products for narrow heads (attention_amd64.s); its conv plumbing
// around the GEMMs (conv_amd64.s); and its row plumbing around the
// attention and dense products (rows_amd64.s). The tier probe below is
// CPUID plus XGETBV. Operands may overlap only exactly (dst == src), as
// for the Go kernels.

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
func dotAsm512(a, b *float32, n int) float32

//go:noescape
func dot4Asm512(a, b0, b1, b2, b3 *float32, n int) (r0, r1, r2, r3 float32)

// zmmGemm is the avx512 tier's products, one gemm_amd64.s call each
// after a bounds check. A@Bᵀ below k = 8 runs the Go body: its dot
// forms have no vector part there.
var zmmGemm = gemmKernels{
	acc: func(c, a, b []float32, m, k, n int) { gemmZMM(c, a, b, m, k, n, k, 1, m&^3) },
	ta:  func(c, a, b []float32, k, m, n int) { gemmZMM(c, a, b, m, k, n, 1, m, m&^3) },
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
// tile (a multiple of 4) run as 4- or 8-row FMA tiles, which skip no
// quad for A@B (ap = 1) and skip per row for Aᵀ@B, and the rest one at
// a time in 64-column panels.
//
//go:noescape
func gemmAsm512(c, a, b *float32, m, k, n, ai, ap, tile int)

// gemmTBAsm512 computes C += A·Bᵀ for B n×k, k ≥ 8.
//
//go:noescape
func gemmTBAsm512(c, a, b *float32, m, k, n int)

// softmaxRowsAsm512 writes the scaled softmax of up to rows rows of cols
// ≥ 1 columns, eight rows at a time, and returns how many it wrote: it
// stops, unwritten, at the first row the scalar code must take, having
// written the rows before it (softmax_amd64.s).
//
//go:noescape
func softmaxRowsAsm512(dst, src *float32, rows, cols int, alpha float64) int

// scoresZMM is scoresAcc for t ≤ 16, dh < 8 (attention_amd64.s).
func scoresZMM(s, x, y []Float, t, dh, ld int) {
	_, _, _ = s[t*t-1], x[(t-1)*ld+dh-1], y[(t-1)*ld+dh-1]
	scoresAsm512(&s[0], &x[0], &y[0], t, dh, ld)
}

// rowsZMM is rowsAcc for t ≤ 16, dh < 8 (attention_amd64.s).
func rowsZMM(c, w []Float, wi, wp int, y []Float, t, dh, ld int) {
	_, _, _ = c[(t-1)*ld+dh-1], w[(t-1)*(wi+wp)], y[(t-1)*ld+dh-1]
	rowsAsm512(&c[0], &w[0], wi, wp, &y[0], t, dh, ld)
}

// biasRowsZMM adds bias to every row of pre, len(bias) columns, and
// writes the ReLU of the sums into act unless act is nil, in one
// rows_amd64.s call, and reports true; for a width that is neither a
// multiple of 16 nor divides 16 it does nothing and reports false. The
// kernel steps 16 floats at a time through the rows, so a width that
// divides 16 runs against the bias repeated to 16.
func biasRowsZMM(act, pre, bias []Float) bool {
	var rep [16]Float
	switch cols := len(bias); {
	case cols%16 == 0:
	case 16%cols == 0:
		for n := copy(rep[:], bias); n < 16; n += copy(rep[n:], rep[:n]) {
		}
		bias = rep[:]
	default:
		return false
	}
	if len(pre) > 0 {
		var a *float32
		if act != nil {
			a = &act[:len(pre)][0]
		}
		biasRowsAsm512(a, &pre[0], &bias[0], len(pre), len(bias))
	}
	return true
}

// sumRowsZMM adds Σ_r src[r·cols+j]·scale to dst[j], rows ascending
// (rows_amd64.s).
func sumRowsZMM(dst, src []Float, cols int, scale Float) {
	if len(src) == 0 {
		return
	}
	_ = dst[cols-1]
	sumRowsAsm512(&dst[0], &src[0], len(src)/cols, cols, scale)
}

//go:noescape
func addScaledAsm512(dst, a, b *float32, alpha float32, n int)

//go:noescape
func biasRowsAsm512(act, pre, bias *float32, n, cols int)

//go:noescape
func sumRowsAsm512(dst, src *float32, rows, cols int, scale float32)

//go:noescape
func softmaxBack8Asm512(ds, a *float32, alpha float32)

//go:noescape
func scoresAsm512(s, x, y *float32, t, dh, ld int)

//go:noescape
func rowsAsm512(c, w *float32, wi, wp int, y *float32, t, dh, ld int)

// im2colAsm512 is Im2col's body for k ≤ 4 (conv_amd64.s); the last
// tail output positions store under a mask.
//
//go:noescape
func im2colAsm512(dst, src *float32, inCh, ph, pw, k, s, oh, ow, tail int)

// col2imAsm512 is Col2im's body for k ≤ 16 (conv_amd64.s).
//
//go:noescape
func col2imAsm512(plane, col *float32, inCh, ph, pw, k, s, oh, ow int)

// copyPlanesAsm512 is CopyInterior's body for planes, rows, n ≥ 1
// (conv_amd64.s).
//
//go:noescape
func copyPlanesAsm512(dst, src *float32, planes, rows, n, dstRow, srcRow, dstPlane, srcPlane int)

// fillRowsAsm512 is FillRows' body for rows, n ≥ 1 (conv_amd64.s).
//
//go:noescape
func fillRowsAsm512(dst, vals *float32, rows, n int, scale float32)

// reluMaskAsm512 is ReluMaskInto's body for n elements (conv_amd64.s).
//
//go:noescape
func reluMaskAsm512(dst, src, pre *float32, n int)

// addChannelBiasReluAsm512 is AddChannelBiasRelu's body for ch ≥ 1
// channels of n ≥ 1 elements; act may be nil (conv_amd64.s).
//
//go:noescape
func addChannelBiasReluAsm512(act, pre, bias *float32, ch, n int)

// expAsm512 replaces each of the eight values with the softmax kernel's
// lane exponent (softmax_amd64.s); the tests hold it to math.Exp.
//
//go:noescape
func expAsm512(x *[8]float64)

// colsumAsm512 adds row r's eight exponentials e[8r:8r+8] to sums[r]
// through the softmax kernel's COLSUM (softmax_amd64.s); the tests hold
// it to ascending-order sums.
//
//go:noescape
func colsumAsm512(e *[64]float64, sums *[8]float64)
