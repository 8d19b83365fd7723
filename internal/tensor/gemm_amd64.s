//go:build amd64

#include "textflag.h"

// Whole-product AVX-512F kernels: each float32 GEMM of the avx512 tier
// is one call here, covering rows, column groups, column tails,
// reduction remainders and the accumulate into C. Per output element
// they perform the float operations of the Go loop nests in gemm.go, in
// the same order (the contract is stated there). Only AVX-512F forms
// are used: EVEX operations run on ZMM registers (a masked ZMM load or
// store stands in for a narrow one) and 128/256-bit work stays on VEX
// encodings of registers 0–15.

// TAILQUAD adds one quad of a row's column tail into C: the generic sum
// (((a0·b0 + a1·b1) + a2·b2) + a3·b3), B's four rows in Z0–Z3, merged
// into C only when one of the four a is not ±0 (K6).
#define TAILQUAD(A0, A1, A2, A3, C) \
	VBROADCASTSS A0, Z4;          \
	VBROADCASTSS A1, Z5;          \
	VBROADCASTSS A2, Z6;          \
	VBROADCASTSS A3, Z7;          \
	VMULPS       Z0, Z4, Z8;      \
	VMULPS       Z1, Z5, Z9;      \
	VADDPS       Z9, Z8, Z8;      \
	VMULPS       Z2, Z6, Z9;      \
	VADDPS       Z9, Z8, Z8;      \
	VMULPS       Z3, Z7, Z9;      \
	VADDPS       Z9, Z8, Z8;      \
	VCMPPS       $4, Z31, Z4, K6; \
	VCMPPS       $4, Z31, Z5, K7; \
	KORW         K7, K6, K6;      \
	VCMPPS       $4, Z31, Z6, K7; \
	KORW         K7, K6, K6;      \
	VCMPPS       $4, Z31, Z7, K7; \
	KORW         K7, K6, K6;      \
	VADDPS       Z8, C, K6, C

// TAILREM adds one remainder term of a row's column tail into C, c + a·b
// with B's row in Z0, unless a is ±0.
#define TAILREM(A, C) \
	VBROADCASTSS A, Z4;           \
	VCMPPS       $4, Z31, Z4, K6; \
	VMULPS       Z0, Z4, Z8;      \
	VADDPS       Z8, C, K6, C

// func gemmAsm512(c, a, b *float32, m, k, n, ai, ap, tile int)
//
// C (m×n) += A·B for B k×n, with A[i][p] at a[i·ai + p·ap]: ai = k,
// ap = 1 is A@B and ai = 1, ap = m is Aᵀ@B over A stored k×m. Columns
// below n&^7 are vector columns, the rest (masked by K5) the tail.
//
//	Rows below tile (a multiple of 4, nonzero only when ap = 1) go four
//	  at a time. Vector columns: 8 ZMM accumulators per pass over two
//	  16-column groups (masked to what is left), one FMA per p
//	  ascending; the k%4 remainder FMA'd per row unless a is ±0. Tail:
//	  per quad unless the row's four a are ±0, the generic sum, then
//	  c + a·b per remainder term unless a is ±0.
//	Every other row goes alone, both column kinds in one pass: per quad
//	  unless all four a are ±0, four FMAs into each vector group and the
//	  generic sum into the tail; per remainder term unless a is ±0, one
//	  FMA and c + a·b.
//
// A quad's all-±0 test that can skip FMAs is a branch (one integer test:
// the four a's bits, ORed and shifted left by one, are zero); the other
// ±0 tests are opmasks from VCMPPS against +0 (Z31), so a skipped term
// leaves C's lanes as they were.
TEXT ·gemmAsm512(SB), NOSPLIT, $8-72
	MOVQ    n+40(FP), CX
	MOVQ    CX, R15
	ANDQ    $-8, R15
	SUBQ    R15, CX
	SHLQ    $2, R15
	MOVQ    R15, n8b-8(SP)    // vector columns, bytes
	MOVL    $1, R15
	SHLL    CX, R15
	DECL    R15
	KMOVW   R15, K5           // the n%8 tail columns
	MOVQ    n+40(FP), R13
	SHLQ    $2, R13           // row stride of B and C, bytes
	LEAQ    (R13)(R13*2), R14
	MOVL    $0xffff, AX
	KMOVW   AX, K1            // a full 16-column group
	MOVL    $0xff, AX
	KMOVW   AX, K2            // a group of 8
	VPXORD  Z31, Z31, Z31
	MOVQ    c+0(FP), R12      // C row cursor
	MOVQ    a+8(FP), R8       // A row cursor

	// Tile rows. DX, R11 = 1·, 3·(A row stride); A steps 4 bytes per p.
	MOVQ  ai+48(FP), DX
	SHLQ  $2, DX
	LEAQ  (DX)(DX*2), R11
	MOVQ  tile+64(FP), AX
	TESTQ AX, AX
	JZ    rows

tileblock:
	MOVQ R12, DI
	MOVQ b+16(FP), R9
	MOVQ n+40(FP), R10
	ANDQ $-8, R10          // vector columns left
	JZ   tiletail

tilegroup:
	KMOVW K1, K3
	KMOVW K1, K4
	CMPQ  R10, $32
	JGE   tileload
	KMOVW K2, K4
	CMPQ  R10, $24
	JEQ   tileload
	KXORW K4, K4, K4
	CMPQ  R10, $16
	JEQ   tileload
	KMOVW K2, K3

tileload:
	VMOVUPS.Z (DI), K3, Z12
	VMOVUPS.Z (DI)(R13*1), K3, Z13
	VMOVUPS.Z (DI)(R13*2), K3, Z14
	VMOVUPS.Z (DI)(R14*1), K3, Z15
	VMOVUPS.Z 64(DI), K4, Z16
	VMOVUPS.Z 64(DI)(R13*1), K4, Z17
	VMOVUPS.Z 64(DI)(R13*2), K4, Z18
	VMOVUPS.Z 64(DI)(R14*1), K4, Z19
	MOVQ      R8, SI
	MOVQ      R9, BX
	MOVQ      k+32(FP), CX
	SHRQ      $2, CX
	JZ        tilerem

tilequad:
	VMOVUPS.Z    (BX), K3, Z0
	VMOVUPS.Z    (BX)(R13*1), K3, Z1
	VMOVUPS.Z    (BX)(R13*2), K3, Z2
	VMOVUPS.Z    (BX)(R14*1), K3, Z3
	VMOVUPS.Z    64(BX), K4, Z20
	VMOVUPS.Z    64(BX)(R13*1), K4, Z21
	VMOVUPS.Z    64(BX)(R13*2), K4, Z22
	VMOVUPS.Z    64(BX)(R14*1), K4, Z23
	VBROADCASTSS (SI), Z4
	VFMADD231PS  Z0, Z4, Z12
	VFMADD231PS  Z20, Z4, Z16
	VBROADCASTSS 4(SI), Z4
	VFMADD231PS  Z1, Z4, Z12
	VFMADD231PS  Z21, Z4, Z16
	VBROADCASTSS 8(SI), Z4
	VFMADD231PS  Z2, Z4, Z12
	VFMADD231PS  Z22, Z4, Z16
	VBROADCASTSS 12(SI), Z4
	VFMADD231PS  Z3, Z4, Z12
	VFMADD231PS  Z23, Z4, Z16
	VBROADCASTSS (SI)(DX*1), Z5
	VFMADD231PS  Z0, Z5, Z13
	VFMADD231PS  Z20, Z5, Z17
	VBROADCASTSS 4(SI)(DX*1), Z5
	VFMADD231PS  Z1, Z5, Z13
	VFMADD231PS  Z21, Z5, Z17
	VBROADCASTSS 8(SI)(DX*1), Z5
	VFMADD231PS  Z2, Z5, Z13
	VFMADD231PS  Z22, Z5, Z17
	VBROADCASTSS 12(SI)(DX*1), Z5
	VFMADD231PS  Z3, Z5, Z13
	VFMADD231PS  Z23, Z5, Z17
	VBROADCASTSS (SI)(DX*2), Z6
	VFMADD231PS  Z0, Z6, Z14
	VFMADD231PS  Z20, Z6, Z18
	VBROADCASTSS 4(SI)(DX*2), Z6
	VFMADD231PS  Z1, Z6, Z14
	VFMADD231PS  Z21, Z6, Z18
	VBROADCASTSS 8(SI)(DX*2), Z6
	VFMADD231PS  Z2, Z6, Z14
	VFMADD231PS  Z22, Z6, Z18
	VBROADCASTSS 12(SI)(DX*2), Z6
	VFMADD231PS  Z3, Z6, Z14
	VFMADD231PS  Z23, Z6, Z18
	VBROADCASTSS (SI)(R11*1), Z7
	VFMADD231PS  Z0, Z7, Z15
	VFMADD231PS  Z20, Z7, Z19
	VBROADCASTSS 4(SI)(R11*1), Z7
	VFMADD231PS  Z1, Z7, Z15
	VFMADD231PS  Z21, Z7, Z19
	VBROADCASTSS 8(SI)(R11*1), Z7
	VFMADD231PS  Z2, Z7, Z15
	VFMADD231PS  Z22, Z7, Z19
	VBROADCASTSS 12(SI)(R11*1), Z7
	VFMADD231PS  Z3, Z7, Z15
	VFMADD231PS  Z23, Z7, Z19
	ADDQ         $16, SI
	LEAQ         (BX)(R13*4), BX
	DECQ         CX
	JNZ          tilequad

tilerem:
	MOVQ k+32(FP), CX
	ANDQ $3, CX
	JZ   tilestore

tileremp:
	VMOVUPS.Z (BX), K3, Z0
	VMOVUPS.Z 64(BX), K4, Z20
	VBROADCASTSS (SI), Z4
	VCMPPS       $4, Z31, Z4, K6
	VFMADD231PS  Z0, Z4, K6, Z12
	VFMADD231PS  Z20, Z4, K6, Z16
	VBROADCASTSS (SI)(DX*1), Z5
	VCMPPS       $4, Z31, Z5, K6
	VFMADD231PS  Z0, Z5, K6, Z13
	VFMADD231PS  Z20, Z5, K6, Z17
	VBROADCASTSS (SI)(DX*2), Z6
	VCMPPS       $4, Z31, Z6, K6
	VFMADD231PS  Z0, Z6, K6, Z14
	VFMADD231PS  Z20, Z6, K6, Z18
	VBROADCASTSS (SI)(R11*1), Z7
	VCMPPS       $4, Z31, Z7, K6
	VFMADD231PS  Z0, Z7, K6, Z15
	VFMADD231PS  Z20, Z7, K6, Z19
	ADDQ         $4, SI
	ADDQ         R13, BX
	DECQ         CX
	JNZ          tileremp

tilestore:
	VMOVUPS Z12, K3, (DI)
	VMOVUPS Z13, K3, (DI)(R13*1)
	VMOVUPS Z14, K3, (DI)(R13*2)
	VMOVUPS Z15, K3, (DI)(R14*1)
	VMOVUPS Z16, K4, 64(DI)
	VMOVUPS Z17, K4, 64(DI)(R13*1)
	VMOVUPS Z18, K4, 64(DI)(R13*2)
	VMOVUPS Z19, K4, 64(DI)(R14*1)
	ADDQ    $128, DI
	ADDQ    $128, R9
	SUBQ    $32, R10
	JG      tilegroup

	// The four rows' column tails, sharing each B load.
tiletail:
	KORTESTW  K5, K5
	JZ        tilenext
	MOVQ      n8b-8(SP), R15
	LEAQ      (R12)(R15*1), DI
	MOVQ      b+16(FP), BX
	ADDQ      R15, BX
	VMOVUPS.Z (DI), K5, Z12
	VMOVUPS.Z (DI)(R13*1), K5, Z13
	VMOVUPS.Z (DI)(R13*2), K5, Z14
	VMOVUPS.Z (DI)(R14*1), K5, Z15
	MOVQ      R8, SI
	MOVQ      k+32(FP), CX
	SHRQ      $2, CX
	JZ        tiletailrem

tiletailquad:
	VMOVUPS.Z (BX), K5, Z0
	VMOVUPS.Z (BX)(R13*1), K5, Z1
	VMOVUPS.Z (BX)(R13*2), K5, Z2
	VMOVUPS.Z (BX)(R14*1), K5, Z3
	TAILQUAD((SI), 4(SI), 8(SI), 12(SI), Z12)
	TAILQUAD((SI)(DX*1), 4(SI)(DX*1), 8(SI)(DX*1), 12(SI)(DX*1), Z13)
	TAILQUAD((SI)(DX*2), 4(SI)(DX*2), 8(SI)(DX*2), 12(SI)(DX*2), Z14)
	TAILQUAD((SI)(R11*1), 4(SI)(R11*1), 8(SI)(R11*1), 12(SI)(R11*1), Z15)
	ADDQ      $16, SI
	LEAQ      (BX)(R13*4), BX
	DECQ      CX
	JNZ       tiletailquad

tiletailrem:
	MOVQ k+32(FP), CX
	ANDQ $3, CX
	JZ   tiletailstore

tiletailremp:
	VMOVUPS.Z (BX), K5, Z0
	TAILREM((SI), Z12)
	TAILREM((SI)(DX*1), Z13)
	TAILREM((SI)(DX*2), Z14)
	TAILREM((SI)(R11*1), Z15)
	ADDQ      $4, SI
	ADDQ      R13, BX
	DECQ      CX
	JNZ       tiletailremp

tiletailstore:
	VMOVUPS Z12, K5, (DI)
	VMOVUPS Z13, K5, (DI)(R13*1)
	VMOVUPS Z14, K5, (DI)(R13*2)
	VMOVUPS Z15, K5, (DI)(R14*1)

tilenext:
	LEAQ (R12)(R13*4), R12
	LEAQ (R8)(DX*4), R8
	SUBQ $4, AX
	JNZ  tileblock

	// Every other row alone. DX, R11 = 1·, 3·(A step per p); the row's
	// column tail stays in Z13.
rows:
	MOVQ ap+56(FP), DX
	SHLQ $2, DX
	LEAQ (DX)(DX*2), R11
	MOVQ m+24(FP), AX
	SUBQ tile+64(FP), AX
	JZ   done

rowloop:
	MOVQ      n8b-8(SP), R15
	VMOVUPS.Z (R12)(R15*1), K5, Z13
	MOVQ      R8, SI
	MOVQ      b+16(FP), BX
	MOVQ      k+32(FP), CX
	SHRQ      $2, CX
	JZ        rowrem

rowquad:
	MOVL         (SI), R15
	ORL          (SI)(DX*1), R15
	ORL          (SI)(DX*2), R15
	ORL          (SI)(R11*1), R15
	SHLL         $1, R15
	JZ           rowquadnext
	VBROADCASTSS (SI), Z4
	VBROADCASTSS (SI)(DX*1), Z5
	VBROADCASTSS (SI)(DX*2), Z6
	VBROADCASTSS (SI)(R11*1), Z7
	MOVQ         R12, DI
	MOVQ         BX, R9
	MOVQ         n+40(FP), R10
	ANDQ         $-8, R10
	JZ           rowquadtail

rowquadgroup:
	KMOVW K1, K3
	CMPQ  R10, $16
	JGE   rowquadfma
	KMOVW K2, K3

rowquadfma:
	VMOVUPS.Z   (DI), K3, Z12
	VMOVUPS.Z   (R9), K3, Z0
	VFMADD231PS Z0, Z4, Z12
	VMOVUPS.Z   (R9)(R13*1), K3, Z1
	VFMADD231PS Z1, Z5, Z12
	VMOVUPS.Z   (R9)(R13*2), K3, Z2
	VFMADD231PS Z2, Z6, Z12
	VMOVUPS.Z   (R9)(R14*1), K3, Z3
	VFMADD231PS Z3, Z7, Z12
	VMOVUPS     Z12, K3, (DI)
	ADDQ        $64, DI
	ADDQ        $64, R9
	SUBQ        $16, R10
	JG          rowquadgroup

rowquadtail:
	KORTESTW  K5, K5
	JZ        rowquadnext
	MOVQ      n8b-8(SP), R15
	LEAQ      (BX)(R15*1), R9
	VMOVUPS.Z (R9), K5, Z0
	VMOVUPS.Z (R9)(R13*1), K5, Z1
	VMOVUPS.Z (R9)(R13*2), K5, Z2
	VMOVUPS.Z (R9)(R14*1), K5, Z3
	VMULPS    Z0, Z4, Z8
	VMULPS    Z1, Z5, Z9
	VADDPS    Z9, Z8, Z8
	VMULPS    Z2, Z6, Z9
	VADDPS    Z9, Z8, Z8
	VMULPS    Z3, Z7, Z9
	VADDPS    Z9, Z8, Z8
	VADDPS    Z8, Z13, Z13

rowquadnext:
	LEAQ (SI)(DX*4), SI
	LEAQ (BX)(R13*4), BX
	DECQ CX
	JNZ  rowquad

rowrem:
	MOVQ k+32(FP), CX
	ANDQ $3, CX
	JZ   rownext

rowremp:
	VBROADCASTSS (SI), Z4
	VCMPPS       $4, Z31, Z4, K6
	MOVQ         R12, DI
	MOVQ         BX, R9
	MOVQ         n+40(FP), R10
	ANDQ         $-8, R10
	JZ           rowremtail

rowremgroup:
	KMOVW K1, K3
	CMPQ  R10, $16
	JGE   rowremfma
	KMOVW K2, K3

rowremfma:
	VMOVUPS.Z   (DI), K3, Z12
	VMOVUPS.Z   (R9), K3, Z0
	VFMADD231PS Z0, Z4, K6, Z12
	VMOVUPS     Z12, K3, (DI)
	ADDQ        $64, DI
	ADDQ        $64, R9
	SUBQ        $16, R10
	JG          rowremgroup

rowremtail:
	MOVQ      n8b-8(SP), R15
	VMOVUPS.Z (BX)(R15*1), K5, Z0
	VMULPS    Z0, Z4, Z8
	VADDPS    Z8, Z13, K6, Z13
	ADDQ      DX, SI
	ADDQ      R13, BX
	DECQ      CX
	JNZ       rowremp

rownext:
	MOVQ    n8b-8(SP), R15
	VMOVUPS Z13, K5, (R12)(R15*1)
	ADDQ    R13, R12
	MOVQ    ai+48(FP), R15
	LEAQ    (R8)(R15*4), R8
	DECQ    AX
	JNZ     rowloop

done:
	VZEROUPPER
	RET

// The A@Bᵀ fold, vectorised across the 16 outputs of a block with
// dot4Asm512's pairings and operand order (lane q of lo256 + hi256, + the
// 8-group, lane q + lane q+4, then (u0 + u1) + (u2 + u3)). TBPAIR folds
// the accumulators of one column in two rows, LO and HI, into LO:
// [lo256 + hi256 of LO | of HI] + fma(A8, B8, +0), A8 holding the two
// rows' 8-groups and B8 the column's twice.
#define TBPAIR(LO, HI, A8, B8) \
	VSHUFF64X2  $0x44, HI, LO, Z16; \
	VSHUFF64X2  $0xEE, HI, LO, Z17; \
	VADDPS      Z17, Z16, LO;       \
	VPXORD      Z18, Z18, Z18;      \
	VFMADD231PS B8, A8, Z18;        \
	VADDPS      Z18, LO, LO

// TBQUAD folds a column's rows 0–1 (S01) and 2–3 (S23) pairs into S01,
// four lanes per row: lane q + lane q+4 of each row's eight.
#define TBQUAD(S01, S23) \
	VSHUFF32X4 $0x88, S23, S01, Z16; \
	VSHUFF32X4 $0xDD, S23, S01, Z17; \
	VADDPS     Z17, Z16, S01

// TBHADD is VHADDPS on every 128-bit lane: D = [X0+X1, X2+X3, Y0+Y1,
// Y2+Y3] per lane.
#define TBHADD(X, Y, D) \
	VSHUFPS $0x88, Y, X, Z16; \
	VSHUFPS $0xDD, Y, X, Z17; \
	VADDPS  Z17, Z16, D

// func gemmTBAsm512(c, a, b *float32, m, k, n int)
//
// C (m×n) += A·Bᵀ for A m×k and B n×k, k ≥ 8. Each 4-row × 4-column
// block of C keeps 16 ZMM accumulators (Z0–Z15, row r column q in
// Z(4r+q)) across the 16-element chunks of k, sharing each B load
// across the four rows. Per element that is dot4Asm512's reduction:
// lane l sums p ≡ l mod 16 by FMA, a trailing 8-group goes to its own
// accumulator, TBPAIR, TBQUAD and two TBHADD levels fold them (leaving
// row r's four sums in 128-bit lane r of Z0), and the k%8 terms follow
// ascending as r + a·b; then c + r. Columns past n&^3 take dotAsm512's
// partition instead, one element at a time.
//
// Rows go in blocks of four. When m%4 rows are left over, the last
// block starts at m−4 and stores only its new rows; below m = 4 each
// row is a block of four copies of itself (row stride 0), stored once.
TEXT ·gemmTBAsm512(SB), NOSPLIT, $40-48
	MOVQ    k+32(FP), AX
	MOVQ    AX, R8
	SHLQ    $2, R8             // row stride of A and B, bytes
	MOVQ    AX, CX
	SHRQ    $4, CX
	MOVQ    CX, kc-16(SP)      // 16-element chunks
	MOVQ    AX, CX
	ANDQ    $7, CX
	MOVQ    CX, t-24(SP)       // scalar tail terms
	MOVQ    AX, CX
	ANDQ    $8, CX
	MOVL    $0xff, DX
	TESTQ   CX, CX
	CMOVQEQ CX, DX
	KMOVW   DX, K2             // the trailing 8-group, if there is one,
	SHLL    $8, DX
	KMOVW   DX, K6             // and the same in the upper eight lanes
	SHLQ    $2, CX
	MOVQ    CX, h8-32(SP)      // and its bytes
	MOVL    $0xf, DX
	KMOVW   DX, K5             // gather lanes: one per column of a quad
	MOVL    $0xfff0, DX
	KMOVW   DX, K3             // lane groups 1–3, 2–3 and 3 (rows of Z0)
	MOVL    $0xff00, DX
	KMOVW   DX, K4
	MOVL    $0xf000, DX
	KMOVW   DX, K7
	XORL    CX, CX
	VMOVD   CX, X0
	VPINSRD $1, AX, X0, X0
	LEAQ    (AX)(AX*1), CX
	VPINSRD $2, CX, X0, X0
	ADDQ    AX, CX
	VPINSRD $3, CX, X0, X0
	VMOVDQA32 Z0, Z31          // gather index: the four columns' rows
	MOVQ    $0, next-8(SP)

block:
	MOVQ next-8(SP), CX
	MOVQ m+24(FP), BX
	CMPQ CX, BX
	JGE  done
	CMPQ BX, $4
	JLT  onerow
	MOVQ R8, R10               // A row stride
	MOVQ n+40(FP), AX
	SHLQ $2, AX                // C row stride
	LEAQ 4(CX), DX
	MOVQ DX, next-8(SP)
	SUBQ BX, DX                // rows of this block past m
	JLE  fullblock
	LEAQ -4(BX), CX            // so start at m−4, and skip DX rows
	JMP  haveblock

fullblock:
	XORL DX, DX
	JMP  haveblock

onerow:
	XORL R10, R10
	XORL AX, AX
	MOVL $3, DX
	LEAQ 1(CX), BX
	MOVQ BX, next-8(SP)

	// CX = first row, DX = rows to skip, R10/AX = A/C row strides.
haveblock:
	MOVQ  CX, R13
	IMULQ R8, R13
	ADDQ  a+8(FP), R13         // A block
	MOVQ  n+40(FP), DI
	IMULQ CX, DI
	SHLQ  $2, DI
	ADDQ  c+0(FP), DI          // C block, then its column cursor
	LEAQ  (R8)(R8*2), R9
	LEAQ  (R10)(R10*2), R14
	LEAQ  (AX)(AX*2), R15
	MOVQ  b+16(FP), R12        // B row of the block's first column
	MOVQ  n+40(FP), R11
	SHRQ  $2, R11
	JZ    cols

quad:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	MOVQ   R13, SI
	MOVQ   R12, BX
	MOVQ   kc-16(SP), CX
	TESTQ  CX, CX
	JZ     reduce

chunk:
	VMOVUPS     (BX), Z16
	VMOVUPS     (BX)(R8*1), Z17
	VMOVUPS     (BX)(R8*2), Z18
	VMOVUPS     (BX)(R9*1), Z19
	VMOVUPS     (SI), Z20
	VMOVUPS     (SI)(R10*1), Z21
	VMOVUPS     (SI)(R10*2), Z22
	VMOVUPS     (SI)(R14*1), Z23
	VFMADD231PS Z16, Z20, Z0
	VFMADD231PS Z17, Z20, Z1
	VFMADD231PS Z18, Z20, Z2
	VFMADD231PS Z19, Z20, Z3
	VFMADD231PS Z16, Z21, Z4
	VFMADD231PS Z17, Z21, Z5
	VFMADD231PS Z18, Z21, Z6
	VFMADD231PS Z19, Z21, Z7
	VFMADD231PS Z16, Z22, Z8
	VFMADD231PS Z17, Z22, Z9
	VFMADD231PS Z18, Z22, Z10
	VFMADD231PS Z19, Z22, Z11
	VFMADD231PS Z16, Z23, Z12
	VFMADD231PS Z17, Z23, Z13
	VFMADD231PS Z18, Z23, Z14
	VFMADD231PS Z19, Z23, Z15
	ADDQ        $64, SI
	ADDQ        $64, BX
	DECQ        CX
	JNZ         chunk

	// The 8-group operands, zero under K2/K6 when there is none: rows
	// 0–1 and 2–3 of A side by side, each column of B twice.
reduce:
	VMOVUPS.Z (SI), K2, Z19
	VMOVUPS   -32(SI)(R10*1), K6, Z19
	VMOVUPS.Z (SI)(R10*2), K2, Z20
	VMOVUPS   -32(SI)(R14*1), K6, Z20
	VMOVUPS.Z (BX), K2, Z21
	VMOVUPS   -32(BX), K6, Z21
	VMOVUPS.Z (BX)(R8*1), K2, Z22
	VMOVUPS   -32(BX)(R8*1), K6, Z22
	VMOVUPS.Z (BX)(R8*2), K2, Z23
	VMOVUPS   -32(BX)(R8*2), K6, Z23
	VMOVUPS.Z (BX)(R9*1), K2, Z24
	VMOVUPS   -32(BX)(R9*1), K6, Z24
	TBPAIR(Z0, Z4, Z19, Z21)
	TBPAIR(Z8, Z12, Z20, Z21)
	TBPAIR(Z1, Z5, Z19, Z22)
	TBPAIR(Z9, Z13, Z20, Z22)
	TBPAIR(Z2, Z6, Z19, Z23)
	TBPAIR(Z10, Z14, Z20, Z23)
	TBPAIR(Z3, Z7, Z19, Z24)
	TBPAIR(Z11, Z15, Z20, Z24)
	TBQUAD(Z0, Z8)
	TBQUAD(Z1, Z9)
	TBQUAD(Z2, Z10)
	TBQUAD(Z3, Z11)
	TBHADD(Z0, Z1, Z0)
	TBHADD(Z2, Z3, Z2)
	TBHADD(Z0, Z2, Z0)

	// The k%8 terms: b[p] of the four columns (gathered, then copied to
	// every lane group) times row r's a[p] in lane group r.
	ADDQ  h8-32(SP), SI
	ADDQ  h8-32(SP), BX
	MOVQ  t-24(SP), CX
	TESTQ CX, CX
	JZ    store

tail:
	KMOVW        K5, K1
	VGATHERDPS   (BX)(Z31*4), K1, Z25
	VSHUFF32X4   $0, Z25, Z25, Z25
	VBROADCASTSS (SI), Z26
	VBROADCASTSS (SI)(R10*1), K3, Z26
	VBROADCASTSS (SI)(R10*2), K4, Z26
	VBROADCASTSS (SI)(R14*1), K7, Z26
	VMULPS       Z25, Z26, Z27
	VADDPS       Z27, Z0, Z0
	ADDQ         $4, SI
	ADDQ         $4, BX
	DECQ         CX
	JNZ          tail

store:
	TESTQ   DX, DX
	JNZ     store1
	VMOVUPS (DI), X1
	VADDPS  X0, X1, X1
	VMOVUPS X1, (DI)

store1:
	CMPQ          DX, $1
	JGT           store2
	VEXTRACTF32X4 $1, Z0, X2
	VMOVUPS       (DI)(AX*1), X1
	VADDPS        X2, X1, X1
	VMOVUPS       X1, (DI)(AX*1)

store2:
	CMPQ          DX, $2
	JGT           store3
	VEXTRACTF32X4 $2, Z0, X2
	VMOVUPS       (DI)(AX*2), X1
	VADDPS        X2, X1, X1
	VMOVUPS       X1, (DI)(AX*2)

store3:
	VEXTRACTF32X4 $3, Z0, X2
	VMOVUPS       (DI)(R15*1), X1
	VADDPS        X2, X1, X1
	VMOVUPS       X1, (DI)(R15*1)
	ADDQ    $16, DI
	LEAQ    (R12)(R8*4), R12
	DECQ    R11
	JNZ     quad

	// Columns past n&^3, rows DX..3 of the block: dotAsm512 per element.
cols:
	MOVQ n+40(FP), R11
	ANDQ $3, R11
	JZ   block
	MOVQ DX, rr-40(SP)

colrow:
	MOVQ  rr-40(SP), CX
	MOVQ  CX, SI
	IMULQ R10, SI
	ADDQ  R13, SI              // A row
	MOVQ  CX, R14
	IMULQ AX, R14
	ADDQ  DI, R14              // C element
	MOVQ  R12, R15             // B row of the column
	MOVQ  n+40(FP), R11
	ANDQ  $3, R11

col:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z8, Z8, Z8
	MOVQ   SI, BX
	MOVQ   R15, R9
	MOVQ   k+32(FP), CX

col64:
	CMPQ        CX, $64
	JLT         col16
	VMOVUPS     (BX), Z4
	VMOVUPS     64(BX), Z5
	VMOVUPS     128(BX), Z6
	VMOVUPS     192(BX), Z7
	VFMADD231PS (R9), Z4, Z0
	VFMADD231PS 64(R9), Z5, Z1
	VFMADD231PS 128(R9), Z6, Z2
	VFMADD231PS 192(R9), Z7, Z3
	ADDQ        $256, BX
	ADDQ        $256, R9
	SUBQ        $64, CX
	JMP         col64

col16:
	CMPQ        CX, $16
	JLT         col8
	VMOVUPS     (BX), Z4
	VFMADD231PS (R9), Z4, Z0
	ADDQ        $64, BX
	ADDQ        $64, R9
	SUBQ        $16, CX
	JMP         col16

col8:
	CMPQ        CX, $8
	JLT         colsum
	VMOVUPS     (BX), Y4
	VFMADD231PS (R9), Y4, Y8
	ADDQ        $32, BX
	ADDQ        $32, R9
	SUBQ        $8, CX

colsum:
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
	TESTQ         CX, CX
	JZ            colc

coltail:
	VMOVSS (BX), X1
	VMULSS (R9), X1, X1
	VADDSS X1, X0, X0
	ADDQ   $4, BX
	ADDQ   $4, R9
	DECQ   CX
	JNZ    coltail

colc:
	VMOVSS (R14), X1
	VADDSS X0, X1, X1
	VMOVSS X1, (R14)
	ADDQ   $4, R14
	ADDQ   R8, R15
	DECQ   R11
	JNZ    col
	MOVQ   rr-40(SP), CX
	INCQ   CX
	MOVQ   CX, rr-40(SP)
	CMPQ   CX, $4
	JLT    colrow
	JMP    block

done:
	VZEROUPPER
	RET
