package tensor

import (
	"fmt"
	"math"
	"unsafe"
)

// This file holds the in-place GEMM kernels the whole NN stack lowers
// onto: convolution (via im2col), dense layers, and attention all call
// the same three product shapes (A@B, Aᵀ@B, A@Bᵀ). The *Into variants
// overwrite a caller-owned destination and the *AccInto variants
// accumulate into it, so steady-state training performs no allocation.
//
// The Go loop nests are generic over the element type: float32 (Float)
// is the backend, float64 the reference behind the Ref64 entry points.
// A float32 product runs on the tier SetSIMDLevel chose: these nests
// over generic Go lanes, the same nests over the YMM kernels of
// simd_amd64.s (AVX2+FMA), or one ZMM call per product (AVX-512F,
// gemm_amd64.s). The nests block k and j for cache; blocking never
// changes an element's operations.
//
// Per output element, every tier performs these float32 operations, in
// this order (gemm_oracle_test.go holds each tier to it bit for bit; a
// tier-independent arithmetic would replace it). Let n8 = n&^7, quads be
// p = 4q..4q+3 below k&^3, and a quad skipped if its four A values are
// ±0; every product and sum is rounded, none fused, unless it says FMA:
//
//   - A@B, Aᵀ@B at the assembly tiers, columns j < n8: one FMA per p,
//     ascending. Skipped quads are skipped, except in A@B's rows below
//     m&^3 (its 4-row tiles). A k%4 remainder term is FMA'd unless A is
//     ±0.
//   - Every other A@B, Aᵀ@B column: per quad not skipped,
//     c + (((a0·b0 + a1·b1) + a2·b2) + a3·b3); then c + a·b per
//     remainder term whose A is not ±0.
//   - A@Bᵀ: c + r, r a dot product. From k = 8 at the assembly tiers,
//     output quads reduce as dot4Asm/dot4Asm512 (lane accumulators, a
//     fixed reduction tree, then the k%8 terms ascending) and the n%4
//     tail columns as dotAsm/dotAsm512; otherwise the Go dot4/dot bodies.
//
// The generic tier holds this only where the compiler does not fuse a
// multiply-add (amd64 below GOAMD64=v3).
const (
	gemmBlockK = 256
	gemmBlockJ = 480
)

// elem is the kernel element-type constraint: the float32 backend plus
// the float64 reference instantiation.
type elem interface {
	~float32 | ~float64
}

// Vector-lane micro-kernels: axpy, axpy4 (four axpy steps in one pass
// over dst), dot and dot4 (one row against four). The generic bodies
// are fixed-width chunked loops ((*[16]E)(dst[i:]) drops the bounds
// checks; independent lanes keep the FP units busy). At the assembly
// tiers the float32 instantiations run their leading len&^7 elements in
// simd_amd64.s and the rest in Go. isF32 is constant per instantiation,
// so the float64 reference never reaches the assembly.

// isF32 reports whether the instantiation element type is the float32
// backend type — constant-folded per instantiation.
func isF32[E elem]() bool { return unsafe.Sizeof(E(0)) == 4 }

func f32s[E elem](s []E) []float32 { return *(*[]float32)(unsafe.Pointer(&s)) }

// SIMDLevel identifies one tier of the float32 kernel dispatch: the
// chunked generic Go kernels, the 8-lane YMM assembly (AVX2+FMA), or
// the 16-lane ZMM assembly (AVX-512F). The running level is detected
// at startup (CPUID/XGETBV on amd64, generic elsewhere) and can be
// lowered per-process through SetSIMDLevel so parity tests exercise
// every tier the host can run.
type SIMDLevel int

const (
	SIMDGeneric SIMDLevel = iota
	SIMDAVX2
	SIMDAVX512
)

// String names the level the way the parity harness and PERF docs do.
func (l SIMDLevel) String() string {
	switch l {
	case SIMDAVX512:
		return "avx512"
	case SIMDAVX2:
		return "avx2"
	default:
		return "generic"
	}
}

// gemmKernels is one tier's float32 products: acc is C += A@B (dims m,
// k, n), ta is C += Aᵀ@B for A stored k×m (dims k, m, n) and tb is
// C += A@Bᵀ for B stored n×k (dims m, k, n).
type gemmKernels struct {
	acc, ta, tb func(c, a, b []float32, x, y, z int)
}

// Dispatch state, all derived from the level by SetSIMDLevel: simdF32
// and simd512 gate the micro-kernels' assembly forms, f32Gemm holds the
// tier's products.
var (
	simdLevel SIMDLevel
	simdF32   bool
	simd512   bool
	f32Gemm   gemmKernels
)

func init() { SetSIMDLevel(simdMax) }

// SIMDSupported returns the highest dispatch level the host supports —
// the level the process runs at unless SetSIMDLevel lowered it.
func SIMDSupported() SIMDLevel { return simdMax }

// CurrentSIMDLevel returns the dispatch level kernels currently run at.
func CurrentSIMDLevel() SIMDLevel { return simdLevel }

// SetSIMDLevel selects the kernel dispatch tier, clamped to what the
// host supports (requesting avx512 on an AVX2-only host runs AVX2), and
// returns the previous level. This is a testing and debugging hook —
// the parity harness uses it to pin every tier against the float64
// reference. Not safe to call concurrently with running kernels.
func SetSIMDLevel(l SIMDLevel) SIMDLevel {
	prev := simdLevel
	if l > simdMax {
		l = simdMax
	}
	if l < SIMDGeneric {
		l = SIMDGeneric
	}
	simdLevel = l
	simdF32 = l >= SIMDAVX2
	simd512 = l >= SIMDAVX512
	f32Gemm = gemmKernels{gemmAcc[float32], gemmTAAcc[float32], gemmTBAcc[float32]}
	if simdF32 {
		f32Gemm.acc = gemmAccF32Tiled
	}
	if simd512 {
		f32Gemm = zmmGemm
	}
	return prev
}

// axpy computes dst[i] += alpha*src[i] in 16-wide chunks with 4-wide
// and scalar remainder tails.
func axpy[E elem](dst, src []E, alpha E) {
	n := len(dst)
	if n == 0 {
		return
	}
	src = src[:n]
	if isF32[E]() && simdF32 && n >= 8 {
		nn := n &^ 7
		d, s := f32s(dst), f32s(src)
		if simd512 {
			axpyAsm512(&d[0], &s[0], float32(alpha), nn)
		} else {
			axpyAsm(&d[0], &s[0], float32(alpha), nn)
		}
		for i := nn; i < n; i++ {
			dst[i] += alpha * src[i]
		}
		return
	}
	i := 0
	for ; i+16 <= n; i += 16 {
		d := (*[16]E)(dst[i:])
		s := (*[16]E)(src[i:])
		d[0] += alpha * s[0]
		d[1] += alpha * s[1]
		d[2] += alpha * s[2]
		d[3] += alpha * s[3]
		d[4] += alpha * s[4]
		d[5] += alpha * s[5]
		d[6] += alpha * s[6]
		d[7] += alpha * s[7]
		d[8] += alpha * s[8]
		d[9] += alpha * s[9]
		d[10] += alpha * s[10]
		d[11] += alpha * s[11]
		d[12] += alpha * s[12]
		d[13] += alpha * s[13]
		d[14] += alpha * s[14]
		d[15] += alpha * s[15]
	}
	for ; i+4 <= n; i += 4 {
		d := (*[4]E)(dst[i:])
		s := (*[4]E)(src[i:])
		d[0] += alpha * s[0]
		d[1] += alpha * s[1]
		d[2] += alpha * s[2]
		d[3] += alpha * s[3]
	}
	for ; i < n; i++ {
		dst[i] += alpha * src[i]
	}
}

// axpy4 computes dst[i] += a0*s0[i] + a1*s1[i] + a2*s2[i] + a3*s3[i] —
// four fused axpy steps that load and store the destination once. The
// per-element addition order is ascending in the source index, so a
// GEMM built on axpy4 keeps its reduction order deterministic.
func axpy4[E elem](dst, s0, s1, s2, s3 []E, a0, a1, a2, a3 E) {
	n := len(dst)
	if n == 0 {
		return
	}
	s0, s1, s2, s3 = s0[:n], s1[:n], s2[:n], s3[:n]
	if isF32[E]() && simdF32 && n >= 8 {
		nn := n &^ 7
		d, x0, x1, x2, x3 := f32s(dst), f32s(s0), f32s(s1), f32s(s2), f32s(s3)
		if simd512 {
			axpy4Asm512(&d[0], &x0[0], &x1[0], &x2[0], &x3[0],
				float32(a0), float32(a1), float32(a2), float32(a3), nn)
		} else {
			axpy4Asm(&d[0], &x0[0], &x1[0], &x2[0], &x3[0],
				float32(a0), float32(a1), float32(a2), float32(a3), nn)
		}
		for i := nn; i < n; i++ {
			dst[i] += a0*s0[i] + a1*s1[i] + a2*s2[i] + a3*s3[i]
		}
		return
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		d := (*[8]E)(dst[i:])
		x0 := (*[8]E)(s0[i:])
		x1 := (*[8]E)(s1[i:])
		x2 := (*[8]E)(s2[i:])
		x3 := (*[8]E)(s3[i:])
		d[0] += a0*x0[0] + a1*x1[0] + a2*x2[0] + a3*x3[0]
		d[1] += a0*x0[1] + a1*x1[1] + a2*x2[1] + a3*x3[1]
		d[2] += a0*x0[2] + a1*x1[2] + a2*x2[2] + a3*x3[2]
		d[3] += a0*x0[3] + a1*x1[3] + a2*x2[3] + a3*x3[3]
		d[4] += a0*x0[4] + a1*x1[4] + a2*x2[4] + a3*x3[4]
		d[5] += a0*x0[5] + a1*x1[5] + a2*x2[5] + a3*x3[5]
		d[6] += a0*x0[6] + a1*x1[6] + a2*x2[6] + a3*x3[6]
		d[7] += a0*x0[7] + a1*x1[7] + a2*x2[7] + a3*x3[7]
	}
	for ; i < n; i++ {
		dst[i] += a0*s0[i] + a1*s1[i] + a2*s2[i] + a3*s3[i]
	}
}

// dot returns the inner product of two equal-length slices: 8-wide
// chunks feeding four independent accumulator lanes, with a scalar
// tail draining into lane 0.
func dot[E elem](a, b []E) E {
	n := len(a)
	if n == 0 {
		return 0
	}
	b = b[:n]
	if isF32[E]() && simdF32 && n >= 8 {
		nn := n &^ 7
		x, y := f32s(a), f32s(b)
		var s float32
		if simd512 {
			s = dotAsm512(&x[0], &y[0], nn)
		} else {
			s = dotAsm(&x[0], &y[0], nn)
		}
		for i := nn; i < n; i++ {
			s += float32(a[i] * b[i])
		}
		return E(s)
	}
	var s0, s1, s2, s3 E
	i := 0
	for ; i+8 <= n; i += 8 {
		x := (*[8]E)(a[i:])
		y := (*[8]E)(b[i:])
		s0 += x[0]*y[0] + x[4]*y[4]
		s1 += x[1]*y[1] + x[5]*y[5]
		s2 += x[2]*y[2] + x[6]*y[6]
		s3 += x[3]*y[3] + x[7]*y[7]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// dot4 returns the inner products of one row a against four rows
// b0..b3, sharing each load of a across the four accumulators.
func dot4[E elem](a, b0, b1, b2, b3 []E) (r0, r1, r2, r3 E) {
	n := len(a)
	if n == 0 {
		return
	}
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	if isF32[E]() && simdF32 && n >= 8 {
		nn := n &^ 7
		x, y0, y1, y2, y3 := f32s(a), f32s(b0), f32s(b1), f32s(b2), f32s(b3)
		var v0, v1, v2, v3 float32
		if simd512 {
			v0, v1, v2, v3 = dot4Asm512(&x[0], &y0[0], &y1[0], &y2[0], &y3[0], nn)
		} else {
			v0, v1, v2, v3 = dot4Asm(&x[0], &y0[0], &y1[0], &y2[0], &y3[0], nn)
		}
		for i := nn; i < n; i++ {
			v0 += float32(a[i] * b0[i])
			v1 += float32(a[i] * b1[i])
			v2 += float32(a[i] * b2[i])
			v3 += float32(a[i] * b3[i])
		}
		return E(v0), E(v1), E(v2), E(v3)
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		x := (*[4]E)(a[i:])
		y0 := (*[4]E)(b0[i:])
		y1 := (*[4]E)(b1[i:])
		y2 := (*[4]E)(b2[i:])
		y3 := (*[4]E)(b3[i:])
		r0 += x[0]*y0[0] + x[1]*y0[1] + x[2]*y0[2] + x[3]*y0[3]
		r1 += x[0]*y1[0] + x[1]*y1[1] + x[2]*y1[2] + x[3]*y1[3]
		r2 += x[0]*y2[0] + x[1]*y2[1] + x[2]*y2[2] + x[3]*y2[3]
		r3 += x[0]*y3[0] + x[1]*y3[1] + x[2]*y3[2] + x[3]*y3[3]
	}
	for ; i < n; i++ {
		r0 += a[i] * b0[i]
		r1 += a[i] * b1[i]
		r2 += a[i] * b2[i]
		r3 += a[i] * b3[i]
	}
	return
}

// Axpy computes dst[i] += alpha*src[i] on backend buffers — the
// exported vector-lane primitive behind the GEMM inner loops.
func Axpy(dst, src []Float, alpha Float) { axpy(dst, src, alpha) }

// Dot returns the inner product of two backend buffers.
func Dot(a, b []Float) Float { return dot(a, b) }

// Ref64Axpy is the float64 reference instantiation of the axpy kernel.
func Ref64Axpy(dst, src []float64, alpha float64) { axpy(dst, src, alpha) }

// Ref64Dot is the float64 reference instantiation of the dot kernel.
func Ref64Dot(a, b []float64) float64 { return dot(a, b) }

// gemmAcc computes C += A@B on raw row-major buffers. The reduction
// axis is consumed four steps at a time through axpy4 (one destination
// pass per quad); the all-zero quad skip keeps ReLU-masked gradient
// rows cheap, matching the zero-skip of the scalar tail.
func gemmAcc[E elem](c, a, b []E, m, k, n int) {
	for j0 := 0; j0 < n; j0 += gemmBlockJ {
		jmax := j0 + gemmBlockJ
		if jmax > n {
			jmax = n
		}
		for k0 := 0; k0 < k; k0 += gemmBlockK {
			kmax := k0 + gemmBlockK
			if kmax > k {
				kmax = k
			}
			for i := 0; i < m; i++ {
				crow := c[i*n+j0 : i*n+jmax]
				arow := a[i*k : (i+1)*k]
				p := k0
				for ; p+4 <= kmax; p += 4 {
					a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
					if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
						continue
					}
					axpy4(crow,
						b[p*n+j0:p*n+jmax], b[(p+1)*n+j0:(p+1)*n+jmax],
						b[(p+2)*n+j0:(p+2)*n+jmax], b[(p+3)*n+j0:(p+3)*n+jmax],
						a0, a1, a2, a3)
				}
				for ; p < kmax; p++ {
					av := arow[p]
					if av == 0 {
						continue
					}
					axpy(crow, b[p*n+j0:p*n+jmax], av)
				}
			}
		}
	}
}

// gemmAccF32Tiled is the avx2 tier's A@B: rows go four at a time through
// the YMM tile, which keeps the four destination rows in registers
// across a reduction block, so each B row is loaded once per four C
// rows. Column and reduction remainders (n%8, k%4) and the m%4 trailing
// rows drain through the per-row kernels; shapes without a tile run
// gemmAcc.
func gemmAccF32Tiled(c, a, b []float32, m, k, n int) {
	if m < 4 || n < 8 || k < 4 {
		gemmAcc(c, a, b, m, k, n)
		return
	}
	for j0 := 0; j0 < n; j0 += gemmBlockJ {
		jmax := j0 + gemmBlockJ
		if jmax > n {
			jmax = n
		}
		w8 := (jmax - j0) &^ 7
		for k0 := 0; k0 < k; k0 += gemmBlockK {
			kmax := k0 + gemmBlockK
			if kmax > k {
				kmax = k
			}
			kq := (kmax - k0) >> 2
			i := 0
			for ; i+4 <= m; i += 4 {
				if kq > 0 && w8 > 0 {
					gemm4RowsAsm(&c[i*n+j0], n, &a[i*k+k0], k, &b[k0*n+j0], n, kq, w8)
				}
				for r := i; r < i+4; r++ {
					arow := a[r*k : (r+1)*k]
					// Reduction remainder over the tiled columns.
					if crow := c[r*n+j0 : r*n+j0+w8]; len(crow) > 0 {
						for p := k0 + kq*4; p < kmax; p++ {
							if av := arow[p]; av != 0 {
								axpy(crow, b[p*n+j0:p*n+j0+w8], av)
							}
						}
					}
					// Column tail takes the full reduction strip.
					ctail := c[r*n+j0+w8 : r*n+jmax]
					if len(ctail) == 0 {
						continue
					}
					p := k0
					for ; p+4 <= kmax; p += 4 {
						a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
						if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
							continue
						}
						axpy4(ctail,
							b[p*n+j0+w8:p*n+jmax], b[(p+1)*n+j0+w8:(p+1)*n+jmax],
							b[(p+2)*n+j0+w8:(p+2)*n+jmax], b[(p+3)*n+j0+w8:(p+3)*n+jmax],
							a0, a1, a2, a3)
					}
					for ; p < kmax; p++ {
						if av := arow[p]; av != 0 {
							axpy(ctail, b[p*n+j0+w8:p*n+jmax], av)
						}
					}
				}
			}
			// Trailing rows (m%4) run the per-row formulation.
			for ; i < m; i++ {
				crow := c[i*n+j0 : i*n+jmax]
				arow := a[i*k : (i+1)*k]
				p := k0
				for ; p+4 <= kmax; p += 4 {
					a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
					if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
						continue
					}
					axpy4(crow,
						b[p*n+j0:p*n+jmax], b[(p+1)*n+j0:(p+1)*n+jmax],
						b[(p+2)*n+j0:(p+2)*n+jmax], b[(p+3)*n+j0:(p+3)*n+jmax],
						a0, a1, a2, a3)
				}
				for ; p < kmax; p++ {
					if av := arow[p]; av != 0 {
						axpy(crow, b[p*n+j0:p*n+jmax], av)
					}
				}
			}
		}
	}
}

// gemmTAAcc computes C += Aᵀ@B for A (k×m), B (k×n). Like gemmAcc, the
// reduction axis advances in quads through axpy4; accumulation per
// destination element stays in ascending-p order.
func gemmTAAcc[E elem](c, a, b []E, k, m, n int) {
	for j0 := 0; j0 < n; j0 += gemmBlockJ {
		jmax := j0 + gemmBlockJ
		if jmax > n {
			jmax = n
		}
		p := 0
		for ; p+4 <= k; p += 4 {
			a0row := a[p*m : (p+1)*m]
			a1row := a[(p+1)*m : (p+2)*m]
			a2row := a[(p+2)*m : (p+3)*m]
			a3row := a[(p+3)*m : (p+4)*m]
			b0 := b[p*n+j0 : p*n+jmax]
			b1 := b[(p+1)*n+j0 : (p+1)*n+jmax]
			b2 := b[(p+2)*n+j0 : (p+2)*n+jmax]
			b3 := b[(p+3)*n+j0 : (p+3)*n+jmax]
			for i := 0; i < m; i++ {
				a0, a1, a2, a3 := a0row[i], a1row[i], a2row[i], a3row[i]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				axpy4(c[i*n+j0:i*n+jmax], b0, b1, b2, b3, a0, a1, a2, a3)
			}
		}
		for ; p < k; p++ {
			arow := a[p*m : (p+1)*m]
			brow := b[p*n+j0 : p*n+jmax]
			for i := 0; i < m; i++ {
				av := arow[i]
				if av == 0 {
					continue
				}
				axpy(c[i*n+j0:i*n+jmax], brow, av)
			}
		}
	}
}

// gemmTBAcc computes C += A@Bᵀ for A (m×k), B (n×k): four output
// columns per pass via dot4, sharing the A-row loads.
func gemmTBAcc[E elem](c, a, b []E, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			r0, r1, r2, r3 := dot4(arow,
				b[j*k:(j+1)*k], b[(j+1)*k:(j+2)*k],
				b[(j+2)*k:(j+3)*k], b[(j+3)*k:(j+4)*k])
			crow[j] += r0
			crow[j+1] += r1
			crow[j+2] += r2
			crow[j+3] += r3
		}
		for ; j < n; j++ {
			crow[j] += dot(arow, b[j*k:(j+1)*k])
		}
	}
}

// MatMulInto computes dst = A@B for A (m×k), B (k×n), dst (m×n).
// dst must not alias either operand.
func MatMulInto(dst, a, b *Tensor) { matMul(dst, a, b, 1, 0, false, "MatMulInto", f32Gemm.acc) }

// MatMulAccInto computes dst += A@B.
func MatMulAccInto(dst, a, b *Tensor) { matMul(dst, a, b, 1, 0, true, "MatMulAccInto", f32Gemm.acc) }

// MatMulTransAInto computes dst = Aᵀ@B for A (k×m), B (k×n), dst (m×n).
func MatMulTransAInto(dst, a, b *Tensor) {
	matMul(dst, a, b, 0, 0, false, "MatMulTransAInto", f32Gemm.ta)
}

// MatMulTransAAccInto computes dst += Aᵀ@B.
func MatMulTransAAccInto(dst, a, b *Tensor) {
	matMul(dst, a, b, 0, 0, true, "MatMulTransAAccInto", f32Gemm.ta)
}

// MatMulTransBInto computes dst = A@Bᵀ for A (m×k), B (n×k), dst (m×n).
func MatMulTransBInto(dst, a, b *Tensor) {
	matMul(dst, a, b, 1, 1, false, "MatMulTransBInto", f32Gemm.tb)
}

// MatMulTransBAccInto computes dst += A@Bᵀ.
func MatMulTransBAccInto(dst, a, b *Tensor) {
	matMul(dst, a, b, 1, 1, true, "MatMulTransBAccInto", f32Gemm.tb)
}

// matMul runs one product of the tier. A and B meet on their axes ra and
// rb, dst is A's other axis by B's, and kernel takes the dims (A rows,
// A columns, B's other axis), the order of every gemmKernels entry. dst
// is validated and unshared — a COW-shared buffer is detached before the
// alias check — then zeroed unless acc.
func matMul(dst, a, b *Tensor, ra, rb int, acc bool, kind string, kernel func(c, a, b []float32, x, y, z int)) {
	if a.Rank() != 2 || b.Rank() != 2 || a.Shape[ra] != b.Shape[rb] {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v x %v", kind, a.Shape, b.Shape))
	}
	m, n := a.Shape[1-ra], b.Shape[1-rb]
	if dst.Rank() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s dst shape %v, want [%d %d]", kind, dst.Shape, m, n))
	}
	dst.EnsureOwned()
	if &dst.Data[0] == &a.Data[0] || &dst.Data[0] == &b.Data[0] {
		panic("tensor: " + kind + " dst must not alias an operand")
	}
	if !acc {
		dst.Zero()
	}
	kernel(dst.Data, a.Data, b.Data, a.Shape[0], a.Shape[1], n)
}

// Ref64Gemm computes C += A@B on float64 buffers — the float64 reference
// instantiation of the backend GEMM kernel, used by parity tests to pin
// the float32 path against a higher-precision ground truth.
func Ref64Gemm(c, a, b []float64, m, k, n int) { gemmAcc(c, a, b, m, k, n) }

// Ref64GemmTransA computes C += Aᵀ@B for A (k×m), B (k×n) on float64
// buffers (reference instantiation).
func Ref64GemmTransA(c, a, b []float64, k, m, n int) { gemmTAAcc(c, a, b, k, m, n) }

// Ref64GemmTransB computes C += A@Bᵀ for A (m×k), B (n×k) on float64
// buffers (reference instantiation).
func Ref64GemmTransB(c, a, b []float64, m, k, n int) { gemmTBAcc(c, a, b, m, k, n) }

// Ref64Softmax applies the row-wise softmax on float64 buffers
// (reference instantiation).
func Ref64Softmax(dst, src []float64, rows, cols int) { softmaxRows(dst, src, rows, cols) }

// AddScaledInto computes dst = a + alpha*b element-wise. dst may alias a.
func AddScaledInto(dst, a, b *Tensor, alpha float64) {
	if len(dst.Data) != len(a.Data) || len(dst.Data) != len(b.Data) {
		panic("tensor: AddScaledInto size mismatch")
	}
	dst.EnsureOwned()
	al := Float(alpha)
	ad, bd := a.Data[:len(dst.Data)], b.Data[:len(dst.Data)]
	for i := range dst.Data {
		dst.Data[i] = ad[i] + al*bd[i]
	}
}

// SoftmaxInto applies a numerically stable row-wise softmax of src into
// dst for rank-2 tensors. dst may alias src.
func SoftmaxInto(dst, src *Tensor) {
	if src.Rank() != 2 || dst.Rank() != 2 || dst.Shape[0] != src.Shape[0] || dst.Shape[1] != src.Shape[1] {
		panic("tensor: SoftmaxInto requires matching rank-2 tensors")
	}
	dst.EnsureOwned()
	softmaxRows(dst.Data, src.Data, src.Shape[0], src.Shape[1])
}

// softmaxRows is the shared softmax kernel. The exponentials and the
// row sum are evaluated in float64 for both instantiations, so the
// float32 backend keeps the reference's numerical stability; only the
// stored probabilities are narrowed.
func softmaxRows[E elem](dst, src []E, rows, cols int) {
	softmaxRowsScaled(dst, src, rows, cols, 1)
}

// softmaxRowsScaled applies the row-wise softmax of alpha*src into dst.
// alpha must be positive (the pre-scale is folded into the stabilized
// exponent, alpha*(v-max), which requires the max of alpha*v to be
// alpha*max). Attention uses alpha = 1/sqrt(d) to fuse the score scale
// into the softmax pass. At the avx512 level float32 rows run on the
// ZMM kernel, which computes every row it accepts bit for bit as the
// scalar loop below does and hands back the rest.
func softmaxRowsScaled[E elem](dst, src []E, rows, cols int, alpha float64) {
	if alpha <= 0 {
		panic("tensor: softmax scale must be positive")
	}
	for i := 0; i < rows; i++ {
		if isF32[E]() && simd512 && cols > 0 {
			d, s := f32s(dst[i*cols:rows*cols]), f32s(src[i*cols:rows*cols])
			if i += softmaxRowsAsm512(&d[0], &s[0], rows-i, cols, alpha); i == rows {
				return
			}
		}
		softmaxRow(dst[i*cols:(i+1)*cols], src[i*cols:(i+1)*cols], alpha)
	}
}

// softmaxRow is one row of softmaxRowsScaled: the exponentials and
// their ascending-j sum in float64, the probabilities narrowed to E.
func softmaxRow[E elem](orow, row []E, alpha float64) {
	max := row[0]
	for _, v := range row[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for j, v := range row {
		e := math.Exp(alpha * float64(v-max))
		orow[j] = E(e)
		sum += e
	}
	inv := E(1.0 / sum)
	for j := range orow {
		orow[j] *= inv
	}
}

// softmaxBackwardRows computes, row by row,
//
//	dst[j] = a[j] * (g[j] − ⟨a_row, g_row⟩) * alpha
//
// — the softmax Jacobian-vector product with a folded post-scale (the
// attention backward applies alpha = 1/sqrt(d) here so the score scale
// never needs its own pass). The row inner product runs through the
// chunked dot kernel. dst may alias a or g: the inner product is fully
// reduced before the row is written, and the element writes only read
// a[j]/g[j] at the same index.
func softmaxBackwardRows[E elem](dst, a, g []E, rows, cols int, alpha E) {
	for i := 0; i < rows; i++ {
		arow := a[i*cols : (i+1)*cols]
		grow := g[i*cols : (i+1)*cols]
		drow := dst[i*cols : (i+1)*cols]
		d := dot(arow, grow)
		for j := range drow {
			drow[j] = arow[j] * (grow[j] - d) * alpha
		}
	}
}

// posMask is all ones when the float32 with bit pattern b compares
// v > 0 (positive finite or +Inf) and zero otherwise — ±0, every
// negative value and every NaN. One unsigned range test: b-1 wraps +0
// to the top of the range, and [1, 0x7F800000] is exactly (0, +Inf].
// ReLU selects with it instead of branching: on pre-activations the
// sign is a coin flip, and a mispredicted `if v > 0` costs more than
// the dozen products that made v.
func posMask(b uint32) uint32 { return uint32((int64(b-1) - 0x7F800000) >> 63) }

// nanMask is all ones when b is a NaN of either sign (b<<1 drops the
// sign; NaNs are the patterns above the shifted infinity).
func nanMask(b uint32) uint32 { return uint32((0xFF000000 - int64(b<<1)) >> 63) }

// relu is v > 0 ? v : 0 for every bit pattern (NaN → 0, −0 → +0).
func relu(v Float) Float {
	b := math.Float32bits(v)
	return math.Float32frombits(b & posMask(b))
}

// ReluInto computes dst = max(src, 0) element-wise. dst may alias src.
func ReluInto(dst, src *Tensor) {
	if len(dst.Data) != len(src.Data) {
		panic("tensor: ReluInto size mismatch")
	}
	dst.EnsureOwned()
	dd := dst.Data
	sd := src.Data[:len(dd)]
	for i := range dd {
		dd[i] = relu(sd[i])
	}
}

// ReluMask zeroes dst[i] wherever pre[i] <= 0 (the ReLU backward mask);
// a NaN pre-activation compares false and keeps its gradient.
func ReluMask(dst, pre *Tensor) { ReluMaskInto(dst, dst, pre) }

// ReluMaskInto is ReluMask out of place: dst[i] = src[i] where
// pre[i] > 0 or is NaN, +0 elsewhere, in one pass — a backward that must
// keep the caller's gradient intact masks while it copies. dst may
// alias src.
func ReluMaskInto(dst, src, pre *Tensor) {
	if len(dst.Data) != len(src.Data) || len(dst.Data) != len(pre.Data) {
		panic("tensor: ReluMaskInto size mismatch")
	}
	dst.EnsureOwned()
	dd := dst.Data
	sd := src.Data[:len(dd)]
	pd := pre.Data[:len(dd)]
	for i := range dd {
		b := math.Float32bits(pd[i])
		dd[i] = math.Float32frombits(math.Float32bits(sd[i]) & (posMask(b) | nanMask(b)))
	}
}

// AddBiasRows adds a bias vector (length = dst.Shape[last]) to every row
// of a rank-2 tensor.
func AddBiasRows(dst, bias *Tensor) {
	cols := dst.Shape[dst.Rank()-1]
	if bias.Len() != cols {
		panic("tensor: AddBiasRows bias length mismatch")
	}
	dst.EnsureOwned()
	bd := bias.Data[:cols]
	for off := 0; off < len(dst.Data); off += cols {
		row := dst.Data[off : off+cols]
		for j, b := range bd {
			row[j] += b
		}
	}
}

// AddBiasReluRows is the fused dense epilogue: it adds bias to every
// row of pre in place (backward masks with the biased pre-activation)
// and writes max(pre, 0) into act, in one pass over the rows.
func AddBiasReluRows(act, pre, bias *Tensor) {
	cols := pre.Shape[pre.Rank()-1]
	if bias.Len() != cols || len(act.Data) != len(pre.Data) {
		panic("tensor: AddBiasReluRows shape mismatch")
	}
	act.EnsureOwned()
	pre.EnsureOwned()
	bd := bias.Data[:cols]
	for off := 0; off < len(pre.Data); off += cols {
		prow, arow := pre.Data[off:off+cols], act.Data[off:off+cols]
		for j, b := range bd {
			v := prow[j] + b
			prow[j], arow[j] = v, relu(v)
		}
	}
}

// AddChannelBiasRelu is the same epilogue for channel-major rows (the
// conv layout): pre holds len(bias) rows of n elements and row c gets
// the scalar bias[c]. A nil act adds the bias only.
func AddChannelBiasRelu(act, pre, bias []Float, n int) {
	for c, b := range bias {
		prow := pre[c*n : (c+1)*n]
		if act == nil {
			for i := range prow {
				prow[i] += b
			}
			continue
		}
		arow := act[c*n : (c+1)*n]
		for i, v := range prow {
			v += b
			prow[i], arow[i] = v, relu(v)
		}
	}
}

// SumRowsAcc accumulates the column-wise sums of a rank-2 tensor into a
// vector of length src.Shape[1] (the bias-gradient reduction).
func SumRowsAcc(dst, src *Tensor) {
	cols := src.Shape[src.Rank()-1]
	if dst.Len() != cols {
		panic("tensor: SumRowsAcc length mismatch")
	}
	dst.EnsureOwned()
	dd := dst.Data
	for off := 0; off < len(src.Data); off += cols {
		row := src.Data[off : off+cols]
		for j := range row {
			dd[j] += row[j]
		}
	}
}
