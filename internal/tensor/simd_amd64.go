//go:build amd64

package tensor

// AVX2+FMA and AVX-512F vector-lane kernels for the float32 backend.
//
// The Go compiler schedules the chunked generic loops in gemm.go onto
// scalar FP units only, which caps an axpy/dot-built GEMM at roughly
// one MAC per cycle. The assembly kernels in simd_amd64.s run the same
// micro-kernels (axpy, axpy4, dot, dot4, and the 4-row GEMM tile) on
// 8-lane YMM registers with fused multiply-add, with 16-lane ZMM forms
// selected when the CPU and OS additionally support AVX-512F (CPUID +
// XGETBV probe below). The generic Go path remains the fallback for
// older hardware — and the float64 instantiation, which never
// dispatches to assembly, remains the Ref64 parity reference the
// harness pins both vector tiers against.
//
// Contract shared by all kernels: n is a multiple of 8 (callers pass
// n&^7 and drain the remainder through the generic tail; the ZMM forms
// drain their own 8-wide sub-remainder on YMM lanes), and slices may
// overlap only exactly (dst == src is fine, partial overlap is not —
// the same rule the Go kernels live by).

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

//go:noescape
func gemm4Rows512Asm(c *float32, cs int, a *float32, as int, b *float32, bs int, kq, w16 int)

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
