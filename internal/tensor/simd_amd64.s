//go:build amd64

#include "textflag.h"

// AVX2+FMA instantiations of the four vector-lane micro-kernels and the
// 4-row tile. See simd_amd64.go for the dispatch contract (n is a
// multiple of 8; the Go wrappers drain remainders through the generic
// tails).

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyAsm(dst, src *float32, alpha float32, n int)
// dst[i] += alpha * src[i], 32 elements per iteration (4 YMM FMAs),
// then 8-wide groups.
TEXT ·axpyAsm(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	VBROADCASTSS alpha+16(FP), Y0
	MOVQ         n+24(FP), CX

axpy32:
	CMPQ         CX, $32
	JL           axpy8
	VMOVUPS      (DI), Y1
	VMOVUPS      32(DI), Y2
	VMOVUPS      64(DI), Y3
	VMOVUPS      96(DI), Y4
	VFMADD231PS  (SI), Y0, Y1
	VFMADD231PS  32(SI), Y0, Y2
	VFMADD231PS  64(SI), Y0, Y3
	VFMADD231PS  96(SI), Y0, Y4
	VMOVUPS      Y1, (DI)
	VMOVUPS      Y2, 32(DI)
	VMOVUPS      Y3, 64(DI)
	VMOVUPS      Y4, 96(DI)
	ADDQ         $128, DI
	ADDQ         $128, SI
	SUBQ         $32, CX
	JMP          axpy32

axpy8:
	CMPQ         CX, $8
	JL           axpydone
	VMOVUPS      (DI), Y1
	VFMADD231PS  (SI), Y0, Y1
	VMOVUPS      Y1, (DI)
	ADDQ         $32, DI
	ADDQ         $32, SI
	SUBQ         $8, CX
	JMP          axpy8

axpydone:
	VZEROUPPER
	RET

// func axpy4Asm(dst, s0, s1, s2, s3 *float32, a0, a1, a2, a3 float32, n int)
// dst[i] += a0*s0[i] + a1*s1[i] + a2*s2[i] + a3*s3[i]: the destination
// row is loaded and stored once per 16 elements while four FMA streams
// accumulate into it (ascending source order, matching the Go kernel).
TEXT ·axpy4Asm(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         s0+8(FP), SI
	MOVQ         s1+16(FP), R8
	MOVQ         s2+24(FP), R9
	MOVQ         s3+32(FP), R10
	VBROADCASTSS a0+40(FP), Y0
	VBROADCASTSS a1+44(FP), Y1
	VBROADCASTSS a2+48(FP), Y2
	VBROADCASTSS a3+52(FP), Y3
	MOVQ         n+56(FP), CX

axpy4x16:
	CMPQ         CX, $16
	JL           axpy4x8
	VMOVUPS      (DI), Y4
	VMOVUPS      32(DI), Y5
	VFMADD231PS  (SI), Y0, Y4
	VFMADD231PS  32(SI), Y0, Y5
	VFMADD231PS  (R8), Y1, Y4
	VFMADD231PS  32(R8), Y1, Y5
	VFMADD231PS  (R9), Y2, Y4
	VFMADD231PS  32(R9), Y2, Y5
	VFMADD231PS  (R10), Y3, Y4
	VFMADD231PS  32(R10), Y3, Y5
	VMOVUPS      Y4, (DI)
	VMOVUPS      Y5, 32(DI)
	ADDQ         $64, DI
	ADDQ         $64, SI
	ADDQ         $64, R8
	ADDQ         $64, R9
	ADDQ         $64, R10
	SUBQ         $16, CX
	JMP          axpy4x16

axpy4x8:
	CMPQ         CX, $8
	JL           axpy4done
	VMOVUPS      (DI), Y4
	VFMADD231PS  (SI), Y0, Y4
	VFMADD231PS  (R8), Y1, Y4
	VFMADD231PS  (R9), Y2, Y4
	VFMADD231PS  (R10), Y3, Y4
	VMOVUPS      Y4, (DI)
	ADDQ         $32, DI
	ADDQ         $32, SI
	ADDQ         $32, R8
	ADDQ         $32, R9
	ADDQ         $32, R10
	SUBQ         $8, CX
	JMP          axpy4x8

axpy4done:
	VZEROUPPER
	RET

// func dotAsm(a, b *float32, n int) float32
// Four independent YMM accumulator lanes (32 elements per iteration)
// reduced horizontally at the end.
TEXT ·dotAsm(SB), NOSPLIT, $0-28
	MOVQ         a+0(FP), SI
	MOVQ         b+8(FP), DI
	MOVQ         n+16(FP), CX
	VXORPS       Y0, Y0, Y0
	VXORPS       Y1, Y1, Y1
	VXORPS       Y2, Y2, Y2
	VXORPS       Y3, Y3, Y3

dot32:
	CMPQ         CX, $32
	JL           dot8
	VMOVUPS      (SI), Y4
	VMOVUPS      32(SI), Y5
	VMOVUPS      64(SI), Y6
	VMOVUPS      96(SI), Y7
	VFMADD231PS  (DI), Y4, Y0
	VFMADD231PS  32(DI), Y5, Y1
	VFMADD231PS  64(DI), Y6, Y2
	VFMADD231PS  96(DI), Y7, Y3
	ADDQ         $128, SI
	ADDQ         $128, DI
	SUBQ         $32, CX
	JMP          dot32

dot8:
	CMPQ         CX, $8
	JL           dotreduce
	VMOVUPS      (SI), Y4
	VFMADD231PS  (DI), Y4, Y0
	ADDQ         $32, SI
	ADDQ         $32, DI
	SUBQ         $8, CX
	JMP          dot8

dotreduce:
	VADDPS       Y1, Y0, Y0
	VADDPS       Y3, Y2, Y2
	VADDPS       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	VMOVSS       X0, ret+24(FP)
	VZEROUPPER
	RET

// func dot4Asm(a, b0, b1, b2, b3 *float32, n int) (r0, r1, r2, r3 float32)
// One shared load of a per iteration feeds four FMA accumulators, one
// per b row — the A-row reuse form of the score GEMM.
TEXT ·dot4Asm(SB), NOSPLIT, $0-64
	MOVQ         a+0(FP), SI
	MOVQ         b0+8(FP), R8
	MOVQ         b1+16(FP), R9
	MOVQ         b2+24(FP), R10
	MOVQ         b3+32(FP), R11
	MOVQ         n+40(FP), CX
	VXORPS       Y0, Y0, Y0
	VXORPS       Y1, Y1, Y1
	VXORPS       Y2, Y2, Y2
	VXORPS       Y3, Y3, Y3

dot4x16:
	CMPQ         CX, $16
	JL           dot4x8
	VMOVUPS      (SI), Y4
	VMOVUPS      32(SI), Y5
	VFMADD231PS  (R8), Y4, Y0
	VFMADD231PS  (R9), Y4, Y1
	VFMADD231PS  (R10), Y4, Y2
	VFMADD231PS  (R11), Y4, Y3
	VFMADD231PS  32(R8), Y5, Y0
	VFMADD231PS  32(R9), Y5, Y1
	VFMADD231PS  32(R10), Y5, Y2
	VFMADD231PS  32(R11), Y5, Y3
	ADDQ         $64, SI
	ADDQ         $64, R8
	ADDQ         $64, R9
	ADDQ         $64, R10
	ADDQ         $64, R11
	SUBQ         $16, CX
	JMP          dot4x16

dot4x8:
	CMPQ         CX, $8
	JL           dot4reduce
	VMOVUPS      (SI), Y4
	VFMADD231PS  (R8), Y4, Y0
	VFMADD231PS  (R9), Y4, Y1
	VFMADD231PS  (R10), Y4, Y2
	VFMADD231PS  (R11), Y4, Y3
	ADDQ         $32, SI
	ADDQ         $32, R8
	ADDQ         $32, R9
	ADDQ         $32, R10
	ADDQ         $32, R11
	SUBQ         $8, CX
	JMP          dot4x8

dot4reduce:
	VEXTRACTF128 $1, Y0, X4
	VADDPS       X4, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	VMOVSS       X0, r0+48(FP)
	VEXTRACTF128 $1, Y1, X4
	VADDPS       X4, X1, X1
	VHADDPS      X1, X1, X1
	VHADDPS      X1, X1, X1
	VMOVSS       X1, r1+52(FP)
	VEXTRACTF128 $1, Y2, X4
	VADDPS       X4, X2, X2
	VHADDPS      X2, X2, X2
	VHADDPS      X2, X2, X2
	VMOVSS       X2, r2+56(FP)
	VEXTRACTF128 $1, Y3, X4
	VADDPS       X4, X3, X3
	VHADDPS      X3, X3, X3
	VHADDPS      X3, X3, X3
	VMOVSS       X3, r3+60(FP)
	VZEROUPPER
	RET

// func gemm4RowsAsm(c *float32, cs int, a *float32, as int, b *float32, bs int, kq, w8 int)
// Register-resident 4-row GEMM tile: C[0:4][0:w8] += A[0:4][0:4*kq] @
// B[0:4*kq][0:w8] with row strides cs/as/bs in elements. Four YMM
// accumulators (one per C row) stay live across the whole reduction, so
// each B panel row is loaded once per four C rows and each C row is
// loaded and stored exactly once per 8-column group — the BLAS3 reuse
// a per-row axpy formulation cannot express. Per destination element
// the reduction still advances in ascending p with one FMA per step,
// matching axpy4Asm bit for bit on finite inputs.
TEXT ·gemm4RowsAsm(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ cs+8(FP), CX
	MOVQ a+16(FP), R8
	MOVQ as+24(FP), DX
	MOVQ b+32(FP), R9
	MOVQ bs+40(FP), R13
	MOVQ w8+56(FP), AX

	// Element strides to byte strides, plus the 3x forms for row 3 of
	// each operand and the 4-row advance of the B cursor.
	SHLQ $2, CX
	SHLQ $2, DX
	SHLQ $2, R13
	LEAQ (CX)(CX*2), R12  // 3*cs
	LEAQ (DX)(DX*2), R11  // 3*as
	LEAQ (R13)(R13*2), R14 // 3*bs
	LEAQ (R13)(R13*2), R15
	ADDQ R13, R15          // 4*bs

gemm4j:
	VMOVUPS (DI), Y12
	VMOVUPS (DI)(CX*1), Y13
	VMOVUPS (DI)(CX*2), Y14
	VMOVUPS (DI)(R12*1), Y15
	MOVQ    R8, SI
	MOVQ    R9, BX
	MOVQ    kq+48(FP), R10

gemm4p:
	VMOVUPS      (BX), Y0
	VMOVUPS      (BX)(R13*1), Y1
	VMOVUPS      (BX)(R13*2), Y2
	VMOVUPS      (BX)(R14*1), Y3
	VBROADCASTSS (SI), Y4
	VFMADD231PS  Y0, Y4, Y12
	VBROADCASTSS 4(SI), Y4
	VFMADD231PS  Y1, Y4, Y12
	VBROADCASTSS 8(SI), Y4
	VFMADD231PS  Y2, Y4, Y12
	VBROADCASTSS 12(SI), Y4
	VFMADD231PS  Y3, Y4, Y12
	VBROADCASTSS (SI)(DX*1), Y5
	VFMADD231PS  Y0, Y5, Y13
	VBROADCASTSS 4(SI)(DX*1), Y5
	VFMADD231PS  Y1, Y5, Y13
	VBROADCASTSS 8(SI)(DX*1), Y5
	VFMADD231PS  Y2, Y5, Y13
	VBROADCASTSS 12(SI)(DX*1), Y5
	VFMADD231PS  Y3, Y5, Y13
	VBROADCASTSS (SI)(DX*2), Y6
	VFMADD231PS  Y0, Y6, Y14
	VBROADCASTSS 4(SI)(DX*2), Y6
	VFMADD231PS  Y1, Y6, Y14
	VBROADCASTSS 8(SI)(DX*2), Y6
	VFMADD231PS  Y2, Y6, Y14
	VBROADCASTSS 12(SI)(DX*2), Y6
	VFMADD231PS  Y3, Y6, Y14
	VBROADCASTSS (SI)(R11*1), Y7
	VFMADD231PS  Y0, Y7, Y15
	VBROADCASTSS 4(SI)(R11*1), Y7
	VFMADD231PS  Y1, Y7, Y15
	VBROADCASTSS 8(SI)(R11*1), Y7
	VFMADD231PS  Y2, Y7, Y15
	VBROADCASTSS 12(SI)(R11*1), Y7
	VFMADD231PS  Y3, Y7, Y15
	ADDQ         $16, SI
	ADDQ         R15, BX
	DECQ         R10
	JNZ          gemm4p

	VMOVUPS Y12, (DI)
	VMOVUPS Y13, (DI)(CX*1)
	VMOVUPS Y14, (DI)(CX*2)
	VMOVUPS Y15, (DI)(R12*1)
	ADDQ    $32, DI
	ADDQ    $32, R9
	SUBQ    $8, AX
	JNZ     gemm4j

	VZEROUPPER
	RET

// AVX-512F (ZMM, 16 float32 lanes) forms of the four micro-kernels
// above, selected when detectSIMD reports SIMDAVX512. The dispatch
// contract is unchanged — n is a multiple of 8 — so each kernel drains a
// possible trailing 8-wide group on YMM lanes after its 16-wide loops.
// axpy and axpy4 keep one FMA per step, ascending, and so match their
// YMM forms bit for bit; the dot family reduces across different lane
// partitions (gemm.go states which products take which). Accumulator
// zeroing uses VEX-encoded VXORPS on the YMM form, which architecturally
// zeroes the full ZMM register, and YMM tail accumulators live in
// separate registers because a VEX write would clear the high 256 bits
// of a live ZMM accumulator.

// func axpyAsm512(dst, src *float32, alpha float32, n int)
TEXT ·axpyAsm512(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	VBROADCASTSS alpha+16(FP), Z0
	MOVQ         n+24(FP), CX

axpy512x64:
	CMPQ        CX, $64
	JL          axpy512x16
	VMOVUPS     (DI), Z1
	VMOVUPS     64(DI), Z2
	VMOVUPS     128(DI), Z3
	VMOVUPS     192(DI), Z4
	VFMADD231PS (SI), Z0, Z1
	VFMADD231PS 64(SI), Z0, Z2
	VFMADD231PS 128(SI), Z0, Z3
	VFMADD231PS 192(SI), Z0, Z4
	VMOVUPS     Z1, (DI)
	VMOVUPS     Z2, 64(DI)
	VMOVUPS     Z3, 128(DI)
	VMOVUPS     Z4, 192(DI)
	ADDQ        $256, DI
	ADDQ        $256, SI
	SUBQ        $64, CX
	JMP         axpy512x64

axpy512x16:
	CMPQ        CX, $16
	JL          axpy512x8
	VMOVUPS     (DI), Z1
	VFMADD231PS (SI), Z0, Z1
	VMOVUPS     Z1, (DI)
	ADDQ        $64, DI
	ADDQ        $64, SI
	SUBQ        $16, CX
	JMP         axpy512x16

axpy512x8:
	CMPQ        CX, $8
	JL          axpy512done
	VMOVUPS     (DI), Y1
	VFMADD231PS (SI), Y0, Y1
	VMOVUPS     Y1, (DI)
	ADDQ        $32, DI
	ADDQ        $32, SI
	SUBQ        $8, CX
	JMP         axpy512x8

axpy512done:
	VZEROUPPER
	RET

// func axpy4Asm512(dst, s0, s1, s2, s3 *float32, a0, a1, a2, a3 float32, n int)
TEXT ·axpy4Asm512(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         s0+8(FP), SI
	MOVQ         s1+16(FP), R8
	MOVQ         s2+24(FP), R9
	MOVQ         s3+32(FP), R10
	VBROADCASTSS a0+40(FP), Z0
	VBROADCASTSS a1+44(FP), Z1
	VBROADCASTSS a2+48(FP), Z2
	VBROADCASTSS a3+52(FP), Z3
	MOVQ         n+56(FP), CX

axpy4z32:
	CMPQ        CX, $32
	JL          axpy4z16
	VMOVUPS     (DI), Z4
	VMOVUPS     64(DI), Z5
	VFMADD231PS (SI), Z0, Z4
	VFMADD231PS 64(SI), Z0, Z5
	VFMADD231PS (R8), Z1, Z4
	VFMADD231PS 64(R8), Z1, Z5
	VFMADD231PS (R9), Z2, Z4
	VFMADD231PS 64(R9), Z2, Z5
	VFMADD231PS (R10), Z3, Z4
	VFMADD231PS 64(R10), Z3, Z5
	VMOVUPS     Z4, (DI)
	VMOVUPS     Z5, 64(DI)
	ADDQ        $128, DI
	ADDQ        $128, SI
	ADDQ        $128, R8
	ADDQ        $128, R9
	ADDQ        $128, R10
	SUBQ        $32, CX
	JMP         axpy4z32

axpy4z16:
	CMPQ        CX, $16
	JL          axpy4z8
	VMOVUPS     (DI), Z4
	VFMADD231PS (SI), Z0, Z4
	VFMADD231PS (R8), Z1, Z4
	VFMADD231PS (R9), Z2, Z4
	VFMADD231PS (R10), Z3, Z4
	VMOVUPS     Z4, (DI)
	ADDQ        $64, DI
	ADDQ        $64, SI
	ADDQ        $64, R8
	ADDQ        $64, R9
	ADDQ        $64, R10
	SUBQ        $16, CX
	JMP         axpy4z16

axpy4z8:
	CMPQ        CX, $8
	JL          axpy4zdone
	VMOVUPS     (DI), Y4
	VFMADD231PS (SI), Y0, Y4
	VFMADD231PS (R8), Y1, Y4
	VFMADD231PS (R9), Y2, Y4
	VFMADD231PS (R10), Y3, Y4
	VMOVUPS     Y4, (DI)
	ADDQ        $32, DI
	ADDQ        $32, SI
	ADDQ        $32, R8
	ADDQ        $32, R9
	ADDQ        $32, R10
	SUBQ        $8, CX
	JMP         axpy4z8

axpy4zdone:
	VZEROUPPER
	RET

// func dotAsm512(a, b *float32, n int) float32
// Four ZMM accumulator lanes (64 elements per iteration) plus a
// separate YMM accumulator for the trailing 8-wide group, reduced
// horizontally at the end.
TEXT ·dotAsm512(SB), NOSPLIT, $0-28
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DI
	MOVQ   n+16(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y8, Y8, Y8

dot512x64:
	CMPQ        CX, $64
	JL          dot512x16
	VMOVUPS     (SI), Z4
	VMOVUPS     64(SI), Z5
	VMOVUPS     128(SI), Z6
	VMOVUPS     192(SI), Z7
	VFMADD231PS (DI), Z4, Z0
	VFMADD231PS 64(DI), Z5, Z1
	VFMADD231PS 128(DI), Z6, Z2
	VFMADD231PS 192(DI), Z7, Z3
	ADDQ        $256, SI
	ADDQ        $256, DI
	SUBQ        $64, CX
	JMP         dot512x64

dot512x16:
	CMPQ        CX, $16
	JL          dot512x8
	VMOVUPS     (SI), Z4
	VFMADD231PS (DI), Z4, Z0
	ADDQ        $64, SI
	ADDQ        $64, DI
	SUBQ        $16, CX
	JMP         dot512x16

dot512x8:
	CMPQ        CX, $8
	JL          dot512reduce
	VMOVUPS     (SI), Y4
	VFMADD231PS (DI), Y4, Y8
	ADDQ        $32, SI
	ADDQ        $32, DI
	SUBQ        $8, CX
	JMP         dot512x8

dot512reduce:
	VADDPS        Z1, Z0, Z0
	VADDPS        Z3, Z2, Z2
	VADDPS        Z2, Z0, Z0
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPS        Y1, Y0, Y0
	VADDPS        Y8, Y0, Y0
	VEXTRACTF128  $1, Y0, X1
	VADDPS        X1, X0, X0
	VHADDPS       X0, X0, X0
	VHADDPS       X0, X0, X0
	VMOVSS        X0, ret+24(FP)
	VZEROUPPER
	RET

// func dot4Asm512(a, b0, b1, b2, b3 *float32, n int) (r0, r1, r2, r3 float32)
// One shared ZMM load of a per iteration feeds four accumulators, one
// per b row; the trailing 8-wide group runs on four separate YMM
// accumulators folded in during the reduction.
TEXT ·dot4Asm512(SB), NOSPLIT, $0-64
	MOVQ   a+0(FP), SI
	MOVQ   b0+8(FP), R8
	MOVQ   b1+16(FP), R9
	MOVQ   b2+24(FP), R10
	MOVQ   b3+32(FP), R11
	MOVQ   n+40(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

dot4z32:
	CMPQ        CX, $32
	JL          dot4z16
	VMOVUPS     (SI), Z4
	VMOVUPS     64(SI), Z5
	VFMADD231PS (R8), Z4, Z0
	VFMADD231PS (R9), Z4, Z1
	VFMADD231PS (R10), Z4, Z2
	VFMADD231PS (R11), Z4, Z3
	VFMADD231PS 64(R8), Z5, Z0
	VFMADD231PS 64(R9), Z5, Z1
	VFMADD231PS 64(R10), Z5, Z2
	VFMADD231PS 64(R11), Z5, Z3
	ADDQ        $128, SI
	ADDQ        $128, R8
	ADDQ        $128, R9
	ADDQ        $128, R10
	ADDQ        $128, R11
	SUBQ        $32, CX
	JMP         dot4z32

dot4z16:
	CMPQ        CX, $16
	JL          dot4z8
	VMOVUPS     (SI), Z4
	VFMADD231PS (R8), Z4, Z0
	VFMADD231PS (R9), Z4, Z1
	VFMADD231PS (R10), Z4, Z2
	VFMADD231PS (R11), Z4, Z3
	ADDQ        $64, SI
	ADDQ        $64, R8
	ADDQ        $64, R9
	ADDQ        $64, R10
	ADDQ        $64, R11
	SUBQ        $16, CX
	JMP         dot4z16

dot4z8:
	CMPQ        CX, $8
	JL          dot4z512reduce
	VMOVUPS     (SI), Y4
	VFMADD231PS (R8), Y4, Y8
	VFMADD231PS (R9), Y4, Y9
	VFMADD231PS (R10), Y4, Y10
	VFMADD231PS (R11), Y4, Y11
	ADDQ        $32, SI
	ADDQ        $32, R8
	ADDQ        $32, R9
	ADDQ        $32, R10
	ADDQ        $32, R11
	SUBQ        $8, CX
	JMP         dot4z8

dot4z512reduce:
	VEXTRACTF64X4 $1, Z0, Y4
	VADDPS        Y4, Y0, Y0
	VADDPS        Y8, Y0, Y0
	VEXTRACTF128  $1, Y0, X4
	VADDPS        X4, X0, X0
	VHADDPS       X0, X0, X0
	VHADDPS       X0, X0, X0
	VMOVSS        X0, r0+48(FP)
	VEXTRACTF64X4 $1, Z1, Y4
	VADDPS        Y4, Y1, Y1
	VADDPS        Y9, Y1, Y1
	VEXTRACTF128  $1, Y1, X4
	VADDPS        X4, X1, X1
	VHADDPS       X1, X1, X1
	VHADDPS       X1, X1, X1
	VMOVSS        X1, r1+52(FP)
	VEXTRACTF64X4 $1, Z2, Y4
	VADDPS        Y4, Y2, Y2
	VADDPS        Y10, Y2, Y2
	VEXTRACTF128  $1, Y2, X4
	VADDPS        X4, X2, X2
	VHADDPS       X2, X2, X2
	VHADDPS       X2, X2, X2
	VMOVSS        X2, r2+56(FP)
	VEXTRACTF64X4 $1, Z3, Y4
	VADDPS        Y4, Y3, Y3
	VADDPS        Y11, Y3, Y3
	VEXTRACTF128  $1, Y3, X4
	VADDPS        X4, X3, X3
	VHADDPS       X3, X3, X3
	VHADDPS       X3, X3, X3
	VMOVSS        X3, r3+60(FP)
	VZEROUPPER
	RET

