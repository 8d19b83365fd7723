//go:build amd64

#include "textflag.h"

// The avx512 tier's attention block products for narrow heads (dh < 8,
// t ≤ 16): scoresAcc and rowsAcc of attention.go, one call per (item,
// head) block, with the lanes across the block's output elements. Each
// element gets the Go body's float32 operations in the Go body's order,
// none fused. Where both operands of a product or a sum may be NaN, the
// first source is the one a plain go1.24 build of the Go body uses, so
// a NaN keeps the same payload there: products take y first (x first
// in scoresAcc's columns past the last quad), the quad sums
// ((p0 + p1) + p2) with p2 second and p3 + that sum with p3 first, an
// accumulator update takes the accumulator first in scoresAcc and the
// new terms first in rowsAcc. Instrumented builds order the Go body's
// operands differently, so the tests compare NaNs as NaNs. AVX-512F
// forms only, as in gemm_amd64.s.
//
// BX holds dh throughout; the per-column sequences below stop after
// column dh − 1 at the label they are given.

// Lane indices 0–15.
DATA attnIota<>+0(SB)/8, $0x0000000100000000
DATA attnIota<>+8(SB)/8, $0x0000000300000002
DATA attnIota<>+16(SB)/8, $0x0000000500000004
DATA attnIota<>+24(SB)/8, $0x0000000700000006
DATA attnIota<>+32(SB)/8, $0x0000000900000008
DATA attnIota<>+40(SB)/8, $0x0000000b0000000a
DATA attnIota<>+48(SB)/8, $0x0000000d0000000c
DATA attnIota<>+56(SB)/8, $0x0000000f0000000e
GLOBL attnIota<>(SB), RODATA|NOPTR, $64

// LANEMASK sets K1 to the low CX (≤ 16) lanes. Clobbers AX.
#define LANEMASK \
	MOVL  $1, AX; \
	SHLL  CX, AX; \
	DECL  AX; \
	KMOVW AX, K1

// STRIDED sets idx to the lane indices times the element stride in
// reg.
#define STRIDED(reg, idx) \
	VPBROADCASTD reg, idx; \
	VPMULLD      attnIota<>(SB), idx, idx

// GATHER loads lane i of v from the float32 at addr + 4·idx[i] for the
// lanes in K1 (the others read +0).
#define GATHER(addr, idx, v) \
	VPXORD     v, v, v; \
	KMOVW      K1, K2; \
	VGATHERDPS addr(idx*4), K2, v

// TABLE loads the next 16 floats at off(base) into v, those below the
// count in Z28 (lane indices in Z27), and counts Z28 down by 16 (Z29):
// four of them hold a block of weights within its first 64 floats, the
// table Z22–Z25 that PERMW permutes columns out of.
#define TABLE(base, off, v) \
	VPCMPD    $1, Z28, Z27, K5; \
	VMOVUPS.Z off(base), K5, v; \
	VPSUBD    Z29, Z28, Z28

// PANEL loads the table from base, AX floats of it, and starts the
// column indices Z26 at idx, stepping by the element count in step.
#define PANEL(base, idx, step) \
	VPBROADCASTD AX, Z28; \
	VMOVDQU32    attnIota<>(SB), Z27; \
	MOVL         $16, AX; \
	VPBROADCASTD AX, Z29; \
	TABLE(base, 0, Z22); \
	TABLE(base, 64, Z23); \
	TABLE(base, 128, Z24); \
	TABLE(base, 192, Z25); \
	MOVL         $32, AX; \
	VPBROADCASTD AX, Z29; \
	VPBROADCASTD step, Z27; \
	VMOVDQA32    idx, Z26

// PERMW permutes the next weight column, lane i = table[Z26[i]], into
// v and steps the indices Z26 by Z27. Bit 5 of an index (Z29) picks the
// second pair of table registers.
#define PERMW(v) \
	VMOVAPS   Z22, v; \
	VPERMT2PS Z23, Z26, v; \
	VPTESTMD  Z29, Z26, K6; \
	VMOVAPS   Z24, Z28; \
	VPERMT2PS Z25, Z26, Z28; \
	VMOVAPS   Z28, K6, v; \
	VPADDD    Z27, Z26, Z26

// COLUMNS gathers columns 0 … dh−1 of the panel at base (lane offsets
// idx) into Z0–Z6 and continues at done.
#define COLUMNS(base, idx, done) \
	GATHER(0(base), idx, Z0); CMPQ BX, $1; JEQ done; \
	GATHER(4(base), idx, Z1); CMPQ BX, $2; JEQ done; \
	GATHER(8(base), idx, Z2); CMPQ BX, $3; JEQ done; \
	GATHER(12(base), idx, Z3); CMPQ BX, $4; JEQ done; \
	GATHER(16(base), idx, Z4); CMPQ BX, $5; JEQ done; \
	GATHER(20(base), idx, Z5); CMPQ BX, $6; JEQ done; \
	GATHER(24(base), idx, Z6)

// STERM adds one product of the quad columns' form to the row r (Z10):
// r + y·x, y the lanes of yv, x broadcast from off(R12).
#define STERM(off, yv) \
	VMULPS.BCST off(R12), yv, Z8; \
	VADDPS      Z8, Z10, Z10

// STERMX adds one product of the other columns' form to their row r
// (Z12): r + x·y.
#define STERMX(off, yv) \
	VBROADCASTSS off(R12), Z11; \
	VMULPS       yv, Z11, Z8; \
	VADDPS       Z8, Z12, Z12

// func scoresAsm512(s, x, y *float32, t, dh, ld int)
//
// Adds x_i · y_j to s[i·t+j] for the t dh-wide rows x_i = x[i·ld:] and
// y_j = y[j·ld:]; 1 ≤ t ≤ 16, 1 ≤ dh ≤ 7. Row i of s is one vector,
// lane j, so the columns y_j[p] are loaded once into Z0–Z6. A score
// starts from r = +0; columns below t&^3 add one quad sum
// (((y0·x0 + y1·x1) + y2·x2) + y3·x3) when dh ≥ 4 and then r + y·x per
// remaining p, the columns past them (K4) r + x·y for every p; then
// s + r. Each row of s is loaded before the row above it is stored: a
// masked store whose 64 bytes reach into the next row would otherwise
// hold that row's load until the store leaves the core.
TEXT ·scoresAsm512(SB), NOSPLIT, $0-48
	MOVQ s+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ t+24(FP), CX
	MOVQ dh+32(FP), BX
	MOVQ ld+40(FP), R8
	LANEMASK
	STRIDED(R8, Z20)
	COLUMNS(DX, Z20, sloaded)

sloaded:
	SHLQ   $2, R8                  // x row stride, bytes
	VPXORD Z31, Z31, Z31
	MOVQ   CX, R9
	ANDQ   $3, R9                  // columns past the last quad
	MOVQ   CX, R10
	MOVQ   CX, R11
	SUBQ   R9, CX
	MOVL   $1, AX
	SHLL   CX, AX
	DECL   AX
	KMOVW  AX, K3
	KANDNW K1, K3, K4              // those columns' lanes
	SHLQ   $2, R11                 // s row stride, bytes
	MOVQ   SI, R12
	MOVQ   DI, R13
	VMOVUPS.Z (R13), K1, Z13       // row 0 of s

srow:
	CMPQ BX, $4
	JLT  sshort
	VMULPS.BCST 0(R12), Z0, Z8
	VMULPS.BCST 4(R12), Z1, Z9
	VADDPS      Z9, Z8, Z8
	VMULPS.BCST 8(R12), Z2, Z9
	VADDPS      Z9, Z8, Z8
	VMULPS.BCST 12(R12), Z3, Z9
	VADDPS      Z8, Z9, Z8
	VADDPS      Z8, Z31, Z10
	CMPQ        BX, $4
	JEQ         stail
	STERM(16, Z4); CMPQ BX, $5; JEQ stail
	STERM(20, Z5); CMPQ BX, $6; JEQ stail
	STERM(24, Z6)
	JMP         stail

sshort:
	VPXORD Z10, Z10, Z10
	STERM(0, Z0); CMPQ BX, $1; JEQ stail
	STERM(4, Z1); CMPQ BX, $2; JEQ stail
	STERM(8, Z2)

stail:
	TESTQ  R9, R9
	JZ     sacc
	VPXORD Z12, Z12, Z12
	STERMX(0, Z0); CMPQ BX, $1; JEQ stmerge
	STERMX(4, Z1); CMPQ BX, $2; JEQ stmerge
	STERMX(8, Z2); CMPQ BX, $3; JEQ stmerge
	STERMX(12, Z3); CMPQ BX, $4; JEQ stmerge
	STERMX(16, Z4); CMPQ BX, $5; JEQ stmerge
	STERMX(20, Z5); CMPQ BX, $6; JEQ stmerge
	STERMX(24, Z6)

stmerge:
	VMOVAPS Z12, K4, Z10

sacc:
	VADDPS    Z13, Z10, Z10        // r + s
	DECQ      R10
	JZ        slast
	VMOVUPS.Z (R13)(R11*1), K1, Z13   // the next row of s
	VMOVUPS   Z10, K1, (R13)
	ADDQ      R8, R12
	ADDQ      R11, R13
	JMP       srow

slast:
	VMOVUPS Z10, K1, (R13)
	VZEROUPPER
	RET

// RQUAD adds one quad of weights (Z8–Z11) to the context column cv under
// K3: cv + (((y0·a0 + y1·a1) + y2·a2) + y3·a3), the y broadcast from
// off bytes into the rows at R10, R10+R11, R10+2·R11 and R10+R12.
#define RQUAD(off, cv) \
	VBROADCASTSS off(R10), Z12; \
	VMULPS       Z8, Z12, Z12; \
	VBROADCASTSS off(R10)(R11*1), Z13; \
	VMULPS       Z9, Z13, Z13; \
	VADDPS       Z13, Z12, Z12; \
	VBROADCASTSS off(R10)(R11*2), Z13; \
	VMULPS       Z10, Z13, Z13; \
	VADDPS       Z13, Z12, Z12; \
	VBROADCASTSS off(R10)(R12*1), Z13; \
	VMULPS       Z11, Z13, Z13; \
	VADDPS       Z12, Z13, Z12; \
	VADDPS       cv, Z12, K3, cv

// RTERM adds one weight (Z8) to the context column cv under K3:
// y·a + cv, y broadcast from off bytes into the row at R10.
#define RTERM(off, cv) \
	VBROADCASTSS off(R10), Z12; \
	VMULPS       Z8, Z12, Z12; \
	VADDPS       cv, Z12, K3, cv

// func rowsAsm512(c, w *float32, wi, wp int, y *float32, t, dh, ld int)
//
// Adds Σ_p w[i·wi+p·wp] · y_p to the dh-wide row c_i = c[i·ld:] for
// i, p < t, y_p = y[p·ld:]; 1 ≤ t ≤ 16, 1 ≤ dh ≤ 7. The context is
// held transposed, one vector per column e (Z0–Z6), lane i, and
// scattered back at the end. A weight column w[·, p] is one vector,
// which DX says how to load: whole when wi = 1 (0), permuted out of the
// table when the block lies within w's first 64 floats (2), gathered
// otherwise (1). Per quad of p, the lanes whose four weights are all
// ±0 keep their value (a mask, not a branch); per remaining p, the
// lanes whose weight is ±0.
TEXT ·rowsAsm512(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ wi+16(FP), R9
	MOVQ wp+24(FP), R8
	MOVQ y+32(FP), R10
	MOVQ t+40(FP), CX
	MOVQ dh+48(FP), BX
	MOVQ ld+56(FP), R11
	LANEMASK
	STRIDED(R11, Z20)
	COLUMNS(DI, Z20, rloaded)

rloaded:
	STRIDED(R9, Z21)
	XORQ  DX, DX
	CMPQ  R9, $1
	JEQ   rmode
	MOVQ  $1, DX
	LEAQ  -1(CX), AX
	LEAQ  (R9)(R8*1), R15
	IMULQ R15, AX                  // the block's last weight
	CMPQ  AX, $64
	JGE   rmode
	MOVQ  $2, DX
	INCQ  AX
	PANEL(SI, Z21, R8)

rmode:
	SHLQ   $2, R11                 // y row stride, bytes
	LEAQ   (R11)(R11*2), R12
	SHLQ   $2, R8                  // weight column stride, bytes
	LEAQ   (R8)(R8*2), R13
	VPXORD Z31, Z31, Z31
	MOVQ   CX, R14
	SHRQ   $2, R14                 // quads of p
	JZ     rtail

rquad:
	CMPQ      DX, $1
	JEQ       rqgather
	JGT       rqperm
	VMOVUPS.Z (SI), K1, Z8
	VMOVUPS.Z (SI)(R8*1), K1, Z9
	VMOVUPS.Z (SI)(R8*2), K1, Z10
	VMOVUPS.Z (SI)(R13*1), K1, Z11
	JMP       rqloaded

rqperm:
	PERMW(Z8)
	PERMW(Z9)
	PERMW(Z10)
	PERMW(Z11)
	JMP rqloaded

rqgather:
	LEAQ   (SI)(R8*1), R15
	GATHER(0(SI), Z21, Z8)
	GATHER(0(R15), Z21, Z9)
	LEAQ   (SI)(R8*2), R15
	GATHER(0(R15), Z21, Z10)
	LEAQ   (SI)(R13*1), R15
	GATHER(0(R15), Z21, Z11)

rqloaded:
	VCMPPS $0, Z31, Z8, K1, K2     // lanes whose four weights are ±0
	VCMPPS $0, Z31, Z9, K2, K2
	VCMPPS $0, Z31, Z10, K2, K2
	VCMPPS $0, Z31, Z11, K2, K2
	KANDNW K1, K2, K3
	RQUAD(0, Z0); CMPQ BX, $1; JEQ rqnext
	RQUAD(4, Z1); CMPQ BX, $2; JEQ rqnext
	RQUAD(8, Z2); CMPQ BX, $3; JEQ rqnext
	RQUAD(12, Z3); CMPQ BX, $4; JEQ rqnext
	RQUAD(16, Z4); CMPQ BX, $5; JEQ rqnext
	RQUAD(20, Z5); CMPQ BX, $6; JEQ rqnext
	RQUAD(24, Z6)

rqnext:
	LEAQ (SI)(R8*4), SI
	LEAQ (R10)(R11*4), R10
	DECQ R14
	JNZ  rquad

rtail:
	ANDQ $3, CX                    // remaining p
	JZ   rstore

rterm:
	CMPQ      DX, $1
	JEQ       rtgather
	JGT       rtperm
	VMOVUPS.Z (SI), K1, Z8
	JMP       rtloaded

rtperm:
	PERMW(Z8)
	JMP rtloaded

rtgather:
	GATHER(0(SI), Z21, Z8)

rtloaded:
	VCMPPS $4, Z31, Z8, K1, K3     // lanes whose weight is not ±0
	RTERM(0, Z0); CMPQ BX, $1; JEQ rtnext
	RTERM(4, Z1); CMPQ BX, $2; JEQ rtnext
	RTERM(8, Z2); CMPQ BX, $3; JEQ rtnext
	RTERM(12, Z3); CMPQ BX, $4; JEQ rtnext
	RTERM(16, Z4); CMPQ BX, $5; JEQ rtnext
	RTERM(20, Z5); CMPQ BX, $6; JEQ rtnext
	RTERM(24, Z6)

rtnext:
	ADDQ R8, SI
	ADDQ R11, R10
	DECQ CX
	JNZ  rterm

rstore:
	KMOVW K1, K2; VSCATTERDPS Z0, K2, 0(DI)(Z20*4); CMPQ BX, $1; JEQ rdone
	KMOVW K1, K2; VSCATTERDPS Z1, K2, 4(DI)(Z20*4); CMPQ BX, $2; JEQ rdone
	KMOVW K1, K2; VSCATTERDPS Z2, K2, 8(DI)(Z20*4); CMPQ BX, $3; JEQ rdone
	KMOVW K1, K2; VSCATTERDPS Z3, K2, 12(DI)(Z20*4); CMPQ BX, $4; JEQ rdone
	KMOVW K1, K2; VSCATTERDPS Z4, K2, 16(DI)(Z20*4); CMPQ BX, $5; JEQ rdone
	KMOVW K1, K2; VSCATTERDPS Z5, K2, 20(DI)(Z20*4); CMPQ BX, $6; JEQ rdone
	KMOVW K1, K2; VSCATTERDPS Z6, K2, 24(DI)(Z20*4)

rdone:
	VZEROUPPER
	RET
