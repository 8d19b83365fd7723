//go:build amd64

#include "textflag.h"

// The avx512 tier's row plumbing around the attention and dense
// products: the residual add a + α·b, the bias (and bias + ReLU)
// epilogue over rows, the column sums of the bias gradient and the
// token mean, and the softmax backward of one 8×8 attention block. Each
// element gets the Go body's float32 operations in the Go body's order,
// none fused, with the Go expression's left operand as the first source
// of each add, subtract and multiply. AVX-512F forms only, as in
// gemm_amd64.s.

// TAILMASK sets k to the low count (≤ 16) lanes. Clobbers AX.
#define TAILMASK(count, k) \
	MOVL  $1, AX; \
	SHLL  count, AX; \
	DECL  AX; \
	KMOVW AX, k

// func addScaledAsm512(dst, a, b *float32, alpha float32, n int)
//
// dst[i] = a[i] + alpha·b[i]: the product rounded (VMULPS), then added
// with a as the first source (VADDPS), as AddScaledInto's a[i] + al*b[i];
// 16 floats per step, the n%16 tail under a mask. Each step loads a and
// b before it stores, so dst may be a or b.
TEXT ·addScaledAsm512(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), DX
	VBROADCASTSS alpha+24(FP), Z0
	MOVQ         n+32(FP), CX

scaled16:
	CMPQ    CX, $16
	JLT     scaledtail
	VMULPS  (DX), Z0, Z1
	VMOVUPS (SI), Z2
	VADDPS  Z1, Z2, Z2
	VMOVUPS Z2, (DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	ADDQ    $64, DX
	SUBQ    $16, CX
	JMP     scaled16

scaledtail:
	TESTQ     CX, CX
	JZ        scaleddone
	TAILMASK(CX, K1)
	VMOVUPS.Z (DX), K1, Z1
	VMULPS    Z1, Z0, Z1
	VMOVUPS.Z (SI), K1, Z2
	VADDPS    Z1, Z2, Z2
	VMOVUPS   Z2, K1, (DI)

scaleddone:
	VZEROUPPER
	RET

// func biasRowsAsm512(act, pre, bias *float32, n, cols int)
//
// For the n ≥ 1 floats of pre, rows of cols floats, cols a multiple of
// 16: pre[r·cols+j] += bias[j] (VADDPS with pre as the first source, as
// the Go bodies' row[j] + b) and, when act is not nil, act[r·cols+j] =
// that sum where it compares > 0 (VCMPPS GT_OQ), +0 elsewhere (a
// zero-masked move), as relu. The rows run as one stream of 16-float
// steps whose bias offset wraps at cols; the n%16 floats after them
// take bias[0:n%16] under a mask (a caller with a tail passes rows of
// a width dividing 16, the bias repeated to 16). No step stores under a
// mask before a later step loads: a load overlapping a masked store
// waits for it to retire.
TEXT ·biasRowsAsm512(SB), NOSPLIT, $0-40
	MOVQ   act+0(FP), DI
	MOVQ   pre+8(FP), SI
	MOVQ   bias+16(FP), DX
	MOVQ   n+24(FP), R8
	MOVQ   cols+32(FP), R9
	SHLQ   $2, R9              // row, bytes
	VPXORD Z31, Z31, Z31
	XORQ   BX, BX              // bias offset, bytes
	XORQ   R11, R11
	MOVQ   R8, CX
	SHRQ   $4, R8              // whole steps
	JZ     biastail

bias16:
	VMOVUPS (SI), Z1
	VADDPS  (DX)(BX*1), Z1, Z1
	VMOVUPS Z1, (SI)
	TESTQ   DI, DI
	JZ      bias16next
	VCMPPS    $0x1e, Z31, Z1, K1
	VMOVUPS.Z Z1, K1, Z2
	VMOVUPS   Z2, (DI)
	ADDQ      $64, DI

bias16next:
	ADDQ    $64, SI
	ADDQ    $64, BX
	CMPQ    BX, R9
	CMOVQEQ R11, BX
	DECQ    R8
	JNZ     bias16

biastail:
	ANDQ      $15, CX
	JZ        biasdone
	TAILMASK(CX, K2)
	VMOVUPS.Z (SI), K2, Z1
	VMOVUPS.Z (DX), K2, Z3
	VADDPS    Z3, Z1, Z1
	VMOVUPS   Z1, K2, (SI)
	TESTQ     DI, DI
	JZ        biasdone
	VCMPPS    $0x1e, Z31, Z1, K1
	VMOVUPS.Z Z1, K1, Z2
	VMOVUPS   Z2, K2, (DI)

biasdone:
	VZEROUPPER
	RET

// func sumRowsAsm512(dst, src *float32, rows, cols int, scale float32)
//
// dst[j] += src[r·cols+j]·scale for r = 0, 1, …, rows−1 in turn, rows,
// cols ≥ 1: each product rounded (VMULPS, src first) and then added to
// the running sum as the first source (VADDPS), as the Go bodies'
// dst[j] += v * scale. 32 columns per pass, held in two registers
// across the rows (two independent chains of adds); lanes past cols
// are masked off.
TEXT ·sumRowsAsm512(SB), NOSPLIT, $0-36
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         rows+16(FP), R8
	MOVQ         cols+24(FP), R9
	VBROADCASTSS scale+32(FP), Z0
	MOVQ         R9, R10
	SHLQ         $2, R10       // row stride, bytes
	MOVL         $16, R11
	XORQ         R12, R12

sumpass:
	MOVQ    R9, CX             // lanes of the first register: min(cols left, 16)
	CMPQ    CX, R11
	CMOVQGT R11, CX
	TAILMASK(CX, K1)
	MOVQ    R9, CX             // of the second: cols left − 16, within [0, 16]
	SUBQ    R11, CX
	CMOVQLT R12, CX
	CMPQ    CX, R11
	CMOVQGT R11, CX
	TAILMASK(CX, K3)
	VMOVUPS.Z (DI), K1, Z1
	VMOVUPS.Z 64(DI), K3, Z3
	MOVQ      SI, DX
	MOVQ      R8, BX

sumrow:
	VMOVUPS.Z (DX), K1, Z2
	VMOVUPS.Z 64(DX), K3, Z4
	VMULPS    Z0, Z2, Z2
	VMULPS    Z0, Z4, Z4
	VADDPS    Z2, Z1, Z1
	VADDPS    Z4, Z3, Z3
	ADDQ      R10, DX
	DECQ      BX
	JNZ       sumrow
	VMOVUPS   Z1, K1, (DI)
	VMOVUPS   Z3, K3, 64(DI)
	ADDQ      $128, DI
	ADDQ      $128, SI
	SUBQ      $32, R9
	JGT       sumpass
	VZEROUPPER
	RET

// BACKPAIR is softmaxBackwardRows for rows 2i and 2i+1 of the block, at
// byte offset off, one row per 256-bit half: the products a·g formed as
// fma(a, g, +0) and added to +0, then summed within each half as
// dotAsm512 sums n = 8, ((p0+p4) + (p1+p5)) + ((p2+p6) + (p3+p7)), that
// sum d broadcast, and (a·(g − d))·alpha written over g.
#define BACKPAIR(off) \
	VMOVUPS     off(SI), Z0; \
	VMOVUPS     off(DI), Z1; \
	VPXORD      Z2, Z2, Z2; \
	VFMADD231PS Z1, Z0, Z2; \
	VADDPS      Z2, Z30, Z2; \
	VSHUFF32X4  $0xB1, Z2, Z2, Z3; \
	VADDPS      Z3, Z2, Z2; \
	VPERMILPS   $0xB1, Z2, Z3; \
	VADDPS      Z3, Z2, Z2; \
	VPERMILPS   $0x4E, Z2, Z3; \
	VADDPS      Z3, Z2, Z2; \
	VSHUFPS     $0, Z2, Z2, Z3; \
	VSUBPS      Z3, Z1, Z1; \
	VMULPS      Z1, Z0, Z1; \
	VMULPS      Z31, Z1, Z1; \
	VMOVUPS     Z1, off(DI)

// func softmaxBack8Asm512(ds, a *float32, alpha float32)
//
// softmaxBackwardRows(ds, a, ds, 8, 8, alpha): ds[i][j] = (a[i][j] ·
// (ds[i][j] − ⟨a_i, ds_i⟩)) · alpha for one 8×8 block, in place. The
// inner product is dot's at n = 8, dotAsm512's tree; the lanes past the
// first of each 128-bit quarter compute it with the operands of some
// adds swapped, which changes no bit but a NaN's payload.
TEXT ·softmaxBack8Asm512(SB), NOSPLIT, $0-20
	MOVQ         ds+0(FP), DI
	MOVQ         a+8(FP), SI
	VBROADCASTSS alpha+16(FP), Z31
	VPXORD       Z30, Z30, Z30
	BACKPAIR(0)
	BACKPAIR(64)
	BACKPAIR(128)
	BACKPAIR(192)
	VZEROUPPER
	RET
