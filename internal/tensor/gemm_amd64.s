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
//
// gemmAsm512 has four paths, and none of them reloads C inside the
// reduction: each loads its C elements into registers once, adds every
// term of k into them, and stores them once.
//
//   - 4-row tiles run two 16-column groups per pass over k (8
//     accumulators), sharing each B load across the rows.
//   - When the vector columns fit one group (n&^7 ≤ 16), 8-row tiles:
//     packed (n&^7 = 8), two rows per register in 256-bit halves (4
//     accumulators, B's row loaded into both halves), or narrow
//     (n&^7 = 16), one accumulator per row (8 FMA chains).
//   - Every other row runs alone in column panels of up to four groups
//     (64 columns), one accumulator per group; the row's n%8 tail rides
//     in the last panel.
//
// Tile rows take their n%8 tail columns 4 rows at a time after the
// vector columns.

// skipmask holds the skip opmasks of tile rows, looked up by the rows'
// bits (set: the row's quad is not all ±0). At 0, entry b (0–15) is four
// 16-bit opmasks, all ones for row r of a 4-row block when bit r is set.
// At 128, entry b is two opmasks for row pairs packed in 256-bit halves:
// lanes 0–7 for the pair's first row when bit 2j is set, 8–15 for its
// second when bit 2j+1 is.
DATA skipmask<>+0x00(SB)/8, $0x0000000000000000
DATA skipmask<>+0x08(SB)/8, $0x000000000000ffff
DATA skipmask<>+0x10(SB)/8, $0x00000000ffff0000
DATA skipmask<>+0x18(SB)/8, $0x00000000ffffffff
DATA skipmask<>+0x20(SB)/8, $0x0000ffff00000000
DATA skipmask<>+0x28(SB)/8, $0x0000ffff0000ffff
DATA skipmask<>+0x30(SB)/8, $0x0000ffffffff0000
DATA skipmask<>+0x38(SB)/8, $0x0000ffffffffffff
DATA skipmask<>+0x40(SB)/8, $0xffff000000000000
DATA skipmask<>+0x48(SB)/8, $0xffff00000000ffff
DATA skipmask<>+0x50(SB)/8, $0xffff0000ffff0000
DATA skipmask<>+0x58(SB)/8, $0xffff0000ffffffff
DATA skipmask<>+0x60(SB)/8, $0xffffffff00000000
DATA skipmask<>+0x68(SB)/8, $0xffffffff0000ffff
DATA skipmask<>+0x70(SB)/8, $0xffffffffffff0000
DATA skipmask<>+0x78(SB)/8, $0xffffffffffffffff
DATA skipmask<>+0x80(SB)/4, $0x00000000
DATA skipmask<>+0x84(SB)/4, $0x000000ff
DATA skipmask<>+0x88(SB)/4, $0x0000ff00
DATA skipmask<>+0x8c(SB)/4, $0x0000ffff
DATA skipmask<>+0x90(SB)/4, $0x00ff0000
DATA skipmask<>+0x94(SB)/4, $0x00ff00ff
DATA skipmask<>+0x98(SB)/4, $0x00ffff00
DATA skipmask<>+0x9c(SB)/4, $0x00ffffff
DATA skipmask<>+0xa0(SB)/4, $0xff000000
DATA skipmask<>+0xa4(SB)/4, $0xff0000ff
DATA skipmask<>+0xa8(SB)/4, $0xff00ff00
DATA skipmask<>+0xac(SB)/4, $0xff00ffff
DATA skipmask<>+0xb0(SB)/4, $0xffff0000
DATA skipmask<>+0xb4(SB)/4, $0xffff00ff
DATA skipmask<>+0xb8(SB)/4, $0xffffff00
DATA skipmask<>+0xbc(SB)/4, $0xffffffff
GLOBL skipmask<>(SB), RODATA|NOPTR, $192

// ROWMASKS loads the skip opmasks of four tile rows (K3, K4, K6, K7)
// from skipmask (R10) by the rows' bits in IDX.
#define ROWMASKS(IDX) \
	KMOVW (R10)(IDX*8), K3;  \
	KMOVW 2(R10)(IDX*8), K4; \
	KMOVW 4(R10)(IDX*8), K6; \
	KMOVW 6(R10)(IDX*8), K7

// ROWBITS8 tests the quad at A (SI, p step R15) of 8 Aᵀ@B tile rows
// against ±0: the rows' four terms are four 32-byte loads, ORed; the
// bits of rows 0–3 (set: not all ±0) go to AX, of rows 4–7 to R9.
#define ROWBITS8 \
	LEAQ     (SI)(R15*2), DI;     \
	VMOVUPS  (SI), Y8;            \
	VPOR     (SI)(R15*1), Y8, Y8; \
	VPOR     (DI), Y8, Y8;        \
	VPOR     (DI)(R15*1), Y8, Y8; \
	VPTESTMD Z30, Z8, K3;         \
	KMOVW    K3, R9;              \
	MOVL     R9, AX;              \
	ANDL     $15, AX;             \
	SHRL     $4, R9

// NARROWP adds one term of k into four rows of a narrow tile: B's row in
// BV, row r's a broadcast from Ar, one FMA into Cr under the row's skip
// opmask.
#define NARROWP(BV, A0, A1, A2, A3, C0, C1, C2, C3) \
	VBROADCASTSS A0, Z4;         \
	VFMADD231PS  BV, Z4, K3, C0; \
	VBROADCASTSS A1, Z5;         \
	VFMADD231PS  BV, Z5, K4, C1; \
	VBROADCASTSS A2, Z6;         \
	VFMADD231PS  BV, Z6, K6, C2; \
	VBROADCASTSS A3, Z7;         \
	VFMADD231PS  BV, Z7, K7, C3

// PAIRFMA adds one term of k into a row pair of a packed tile: B's 8
// columns in both halves of Z0, the pair's a broadcast into the halves
// of V from A0 and A1 (K2 = the upper half), one FMA into C under the
// pair's skip opmask K.
#define PAIRFMA(A0, A1, V, K, C) \
	VBROADCASTSS A0, V;         \
	VBROADCASTSS A1, K2, V;     \
	VFMADD231PS  Z0, V, K, C

// PACKEDP adds the term of k at A (SI: rows 0–3, DI: rows 4–7) and B
// (BX) into a packed tile's four pairs, then steps all three to the next
// term.
#define PACKEDP \
	VBROADCASTF64X4 (BX), Z0;                      \
	PAIRFMA((SI), (SI)(DX*1), Z4, K3, Z12);        \
	PAIRFMA((SI)(DX*2), (SI)(R11*1), Z5, K4, Z13); \
	PAIRFMA((DI), (DI)(DX*1), Z6, K6, Z14);        \
	PAIRFMA((DI)(DX*2), (DI)(R11*1), Z7, K7, Z15); \
	ADDQ            R15, SI;                       \
	ADDQ            R15, DI;                       \
	ADDQ            R13, BX

// PAIRREM adds one remainder term into a row pair of a packed tile,
// fused, in each half unless its row's a is ±0 (K6).
#define PAIRREM(A0, A1, C) \
	VBROADCASTSS A0, Z4;          \
	VBROADCASTSS A1, K2, Z4;      \
	VCMPPS       $4, Z31, Z4, K6; \
	VFMADD231PS  Z0, Z4, K6, C

// WIDEP adds the term of k at A (DI) and B (BX) into a 4-row tile's two
// column groups (Z12–Z15, Z16–Z19) under the rows' skip opmasks, then
// steps both to the next term.
#define WIDEP \
	VMOVUPS.Z    (BX), K1, Z0;     \
	VMOVUPS.Z    64(BX), K2, Z1;   \
	VBROADCASTSS (DI), Z4;         \
	VFMADD231PS  Z0, Z4, K3, Z12;  \
	VFMADD231PS  Z1, Z4, K3, Z16;  \
	VBROADCASTSS (DI)(DX*1), Z5;   \
	VFMADD231PS  Z0, Z5, K4, Z13;  \
	VFMADD231PS  Z1, Z5, K4, Z17;  \
	VBROADCASTSS (DI)(DX*2), Z6;   \
	VFMADD231PS  Z0, Z6, K6, Z14;  \
	VFMADD231PS  Z1, Z6, K6, Z18;  \
	VBROADCASTSS (DI)(R11*1), Z7;  \
	VFMADD231PS  Z0, Z7, K7, Z15;  \
	VFMADD231PS  Z1, Z7, K7, Z19;  \
	ADDQ         R15, DI;          \
	ADDQ         R13, BX

// REMFMA adds one remainder term into C, c + a·b fused with B's group
// in Z0, unless a is ±0 (K6); REMFMA2 also into D, B's second group in
// Z1.
#define REMFMA(A, C) \
	VBROADCASTSS A, Z4;           \
	VCMPPS       $4, Z31, Z4, K6; \
	VFMADD231PS  Z0, Z4, K6, C

#define REMFMA2(A, C, D) \
	REMFMA(A, C);                 \
	VFMADD231PS  Z1, Z4, K6, D

// PANELGROUP adds a quad into one column group of a one-row panel: B's
// four rows at OFF(BX) under the group's opmask K, one FMA per p.
#define PANELGROUP(OFF, K, C) \
	VMOVUPS.Z   OFF(BX), K, Z0;          \
	VFMADD231PS Z0, Z4, C;               \
	VMOVUPS.Z   OFF(BX)(R13*1), K, Z1;   \
	VFMADD231PS Z1, Z5, C;               \
	VMOVUPS.Z   OFF(BX)(R13*2), K, Z2;   \
	VFMADD231PS Z2, Z6, C;               \
	VMOVUPS.Z   OFF(BX)(R14*1), K, Z3;   \
	VFMADD231PS Z3, Z7, C

// TAILQUAD adds one quad of a row's column tail into C: the generic sum
// (((a0·b0 + a1·b1) + a2·b2) + a3·b3), B's four rows in Z0–Z3, merged
// into C only when one of the four a is not ±0 (K6: their bits ORed,
// tested against Z30 = 0x7fffffff).
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
	VPORD        Z5, Z4, Z10;     \
	VPORD        Z7, Z6, Z11;     \
	VPORD        Z11, Z10, Z10;   \
	VPTESTMD     Z30, Z10, K6;    \
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
//	Rows below tile (a multiple of 4) go in tiles of 8 rows when the
//	  vector columns fit one group and 8 rows are left (two rows per
//	  register when they are 8), else of 4. Vector columns: one FMA
//	  per p ascending into register accumulators; the k%4 remainder
//	  FMA'd per row unless a is ±0. A@B (ap = 1) skips no quad there.
//	  Aᵀ@B skips per row: its rows' four a of a quad are four 16-byte
//	  loads (32 for 8 rows), ORed and tested against ±0 (VPTESTMD), and
//	  each row's FMAs run under the skipmask entry of the result, so a
//	  skipped row's lanes keep C. Tail: per quad unless the row's four a
//	  are ±0, the generic sum, then c + a·b per remainder term unless a
//	  is ±0.
//	Every other row goes alone, one panel of up to 64 vector columns at
//	  a time (the last panel also carries the tail): per quad unless all
//	  four a are ±0, four FMAs into each group and the generic sum into
//	  the tail; per remainder term unless a is ±0, one FMA and c + a·b.
//
// The one-row quad skip is a branch (one integer test: the four a's
// bits, ORed and shifted left by one, are zero); the other ±0 tests are
// opmasks, so a skipped term leaves C's lanes as they were.
TEXT ·gemmAsm512(SB), NOSPLIT, $24-72
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
	VPXORD  Z31, Z31, Z31
	MOVQ    c+0(FP), R12      // C row cursor
	MOVQ    a+8(FP), R8       // A row cursor
	MOVQ    tile+64(FP), AX
	TESTQ   AX, AX
	JZ      rows

	// Tiles. DX, R11 = 1·, 3·(A's row step), R15 = A's p step, in bytes;
	// R10 = skipmask; Z30 = 0x7fffffff in every lane; tr = tile rows left.
	MOVQ       AX, tr-16(SP)
	MOVQ       ai+48(FP), DX
	SHLQ       $2, DX
	LEAQ       (DX)(DX*2), R11
	MOVQ       ap+56(FP), R15
	SHLQ       $2, R15
	LEAQ       skipmask<>(SB), R10
	VPTERNLOGD $0xff, Z30, Z30, Z30
	VPSRLD     $1, Z30, Z30

tileblock:
	MOVQ  $4, rb-24(SP)        // rows in this block
	MOVQ  n8b-8(SP), AX
	TESTQ AX, AX
	JZ    tiletails
	CMPQ  AX, $64
	JGT   wide
	CMPQ  tr-16(SP), $8
	JLT   wide

	MOVQ      $8, rb-24(SP)
	CMPQ      AX, $32
	JEQ       packed

	// Narrow tile: 8 rows, one group (K1), accumulators Z12–Z19. A quad
	// runs rows 0–3 over its four terms, then rows 4–7, so four opmasks
	// hold the skips of either half.
	MOVL      $0xffff, BX
	MOVL      $0xff, CX
	CMPQ      AX, $64
	CMOVQEQ   BX, CX
	KMOVW     CX, K1
	LEAQ      (R12)(R13*4), DI
	VMOVUPS.Z (R12), K1, Z12
	VMOVUPS.Z (R12)(R13*1), K1, Z13
	VMOVUPS.Z (R12)(R13*2), K1, Z14
	VMOVUPS.Z (R12)(R14*1), K1, Z15
	VMOVUPS.Z (DI), K1, Z16
	VMOVUPS.Z (DI)(R13*1), K1, Z17
	VMOVUPS.Z (DI)(R13*2), K1, Z18
	VMOVUPS.Z (DI)(R14*1), K1, Z19
	KXNORW    K3, K3, K3
	KMOVW     K3, K4
	KMOVW     K3, K6
	KMOVW     K3, K7
	MOVQ      R8, SI
	MOVQ      b+16(FP), BX
	MOVQ      k+32(FP), CX
	SHRQ      $2, CX
	JZ        narrowrem

narrowquad:
	VMOVUPS.Z (BX), K1, Z0
	VMOVUPS.Z (BX)(R13*1), K1, Z1
	VMOVUPS.Z (BX)(R13*2), K1, Z2
	VMOVUPS.Z (BX)(R14*1), K1, Z3
	CMPQ      R15, $4
	JEQ       narrowlo
	ROWBITS8
	ROWMASKS(AX)

narrowlo:
	MOVQ    SI, DI
	NARROWP(Z0, (DI), (DI)(DX*1), (DI)(DX*2), (DI)(R11*1), Z12, Z13, Z14, Z15)
	ADDQ    R15, DI
	NARROWP(Z1, (DI), (DI)(DX*1), (DI)(DX*2), (DI)(R11*1), Z12, Z13, Z14, Z15)
	ADDQ    R15, DI
	NARROWP(Z2, (DI), (DI)(DX*1), (DI)(DX*2), (DI)(R11*1), Z12, Z13, Z14, Z15)
	ADDQ    R15, DI
	NARROWP(Z3, (DI), (DI)(DX*1), (DI)(DX*2), (DI)(R11*1), Z12, Z13, Z14, Z15)
	CMPQ    R15, $4
	JEQ     narrowhi
	ROWMASKS(R9)

narrowhi:
	LEAQ    (SI)(DX*4), DI
	NARROWP(Z0, (DI), (DI)(DX*1), (DI)(DX*2), (DI)(R11*1), Z16, Z17, Z18, Z19)
	ADDQ    R15, DI
	NARROWP(Z1, (DI), (DI)(DX*1), (DI)(DX*2), (DI)(R11*1), Z16, Z17, Z18, Z19)
	ADDQ    R15, DI
	NARROWP(Z2, (DI), (DI)(DX*1), (DI)(DX*2), (DI)(R11*1), Z16, Z17, Z18, Z19)
	ADDQ    R15, DI
	NARROWP(Z3, (DI), (DI)(DX*1), (DI)(DX*2), (DI)(R11*1), Z16, Z17, Z18, Z19)
	LEAQ    (SI)(R15*4), SI
	LEAQ    (BX)(R13*4), BX
	DECQ    CX
	JNZ     narrowquad

narrowrem:
	MOVQ k+32(FP), CX
	ANDQ $3, CX
	JZ   narrowstore

narrowremp:
	VMOVUPS.Z (BX), K1, Z0
	LEAQ      (SI)(DX*4), DI
	REMFMA((SI), Z12)
	REMFMA((SI)(DX*1), Z13)
	REMFMA((SI)(DX*2), Z14)
	REMFMA((SI)(R11*1), Z15)
	REMFMA((DI), Z16)
	REMFMA((DI)(DX*1), Z17)
	REMFMA((DI)(DX*2), Z18)
	REMFMA((DI)(R11*1), Z19)
	ADDQ      R15, SI
	ADDQ      R13, BX
	DECQ      CX
	JNZ       narrowremp

narrowstore:
	LEAQ    (R12)(R13*4), DI
	VMOVUPS Z12, K1, (R12)
	VMOVUPS Z13, K1, (R12)(R13*1)
	VMOVUPS Z14, K1, (R12)(R13*2)
	VMOVUPS Z15, K1, (R12)(R14*1)
	VMOVUPS Z16, K1, (DI)
	VMOVUPS Z17, K1, (DI)(R13*1)
	VMOVUPS Z18, K1, (DI)(R13*2)
	VMOVUPS Z19, K1, (DI)(R14*1)
	JMP     tiletails

	// Packed tile: 8 rows of 8 vector columns, rows 2j and 2j+1 in the
	// low and high halves of Z(12+j) (K1, K2), each B row loaded into
	// both halves. The C rows of a pair are 8 floats apart in the
	// register and a row stride apart in memory, so the high half loads
	// and stores 32 bytes before the odd row.
packed:
	MOVL      $0xff, CX
	KMOVW     CX, K1
	MOVL      $0xff00, CX
	KMOVW     CX, K2
	LEAQ      (R12)(R13*4), DI
	VMOVUPS.Z (R12), K1, Z12
	VMOVUPS   -32(R12)(R13*1), K2, Z12
	VMOVUPS.Z (R12)(R13*2), K1, Z13
	VMOVUPS   -32(R12)(R14*1), K2, Z13
	VMOVUPS.Z (DI), K1, Z14
	VMOVUPS   -32(DI)(R13*1), K2, Z14
	VMOVUPS.Z (DI)(R13*2), K1, Z15
	VMOVUPS   -32(DI)(R14*1), K2, Z15
	KXNORW    K3, K3, K3
	KMOVW     K3, K4
	KMOVW     K3, K6
	KMOVW     K3, K7
	MOVQ      R8, SI
	MOVQ      b+16(FP), BX
	MOVQ      k+32(FP), CX
	SHRQ      $2, CX
	JZ        packedrem

packedquad:
	CMPQ      R15, $4
	JEQ       packedfma
	ROWBITS8
	KMOVW     128(R10)(AX*4), K3
	KMOVW     130(R10)(AX*4), K4
	KMOVW     128(R10)(R9*4), K6
	KMOVW     130(R10)(R9*4), K7

packedfma:
	LEAQ (SI)(DX*4), DI
	PACKEDP
	PACKEDP
	PACKEDP
	PACKEDP
	DECQ CX
	JNZ  packedquad

packedrem:
	MOVQ k+32(FP), CX
	ANDQ $3, CX
	JZ   packedstore
	LEAQ (SI)(DX*4), DI

packedremp:
	VBROADCASTF64X4 (BX), Z0
	PAIRREM((SI), (SI)(DX*1), Z12)
	PAIRREM((SI)(DX*2), (SI)(R11*1), Z13)
	PAIRREM((DI), (DI)(DX*1), Z14)
	PAIRREM((DI)(DX*2), (DI)(R11*1), Z15)
	ADDQ            R15, SI
	ADDQ            R15, DI
	ADDQ            R13, BX
	DECQ            CX
	JNZ             packedremp

packedstore:
	LEAQ    (R12)(R13*4), DI
	VMOVUPS Z12, K1, (R12)
	VMOVUPS Z12, K2, -32(R12)(R13*1)
	VMOVUPS Z13, K1, (R12)(R13*2)
	VMOVUPS Z13, K2, -32(R12)(R14*1)
	VMOVUPS Z14, K1, (DI)
	VMOVUPS Z14, K2, -32(DI)(R13*1)
	VMOVUPS Z15, K1, (DI)(R13*2)
	VMOVUPS Z15, K2, -32(DI)(R14*1)
	JMP     tiletails

	// 4-row tile: passes over two 16-column groups (K1, K2, masked to
	// what is left); R9 = the pass's column offset, bytes.
wide:
	XORL R9, R9

widepass:
	MOVQ      n8b-8(SP), AX
	SUBQ      R9, AX
	MOVL      $0xffff, BX
	MOVL      $0xff, CX
	CMPQ      AX, $64
	CMOVQGE   BX, CX
	KMOVW     CX, K1
	XORL      CX, CX
	CMPQ      AX, $96
	JLT       widek2
	MOVL      $0xff, CX
	CMOVQGT   BX, CX

widek2:
	KMOVW     CX, K2
	LEAQ      (R12)(R9*1), DI
	VMOVUPS.Z (DI), K1, Z12
	VMOVUPS.Z (DI)(R13*1), K1, Z13
	VMOVUPS.Z (DI)(R13*2), K1, Z14
	VMOVUPS.Z (DI)(R14*1), K1, Z15
	VMOVUPS.Z 64(DI), K2, Z16
	VMOVUPS.Z 64(DI)(R13*1), K2, Z17
	VMOVUPS.Z 64(DI)(R13*2), K2, Z18
	VMOVUPS.Z 64(DI)(R14*1), K2, Z19
	KXNORW    K3, K3, K3
	KMOVW     K3, K4
	KMOVW     K3, K6
	KMOVW     K3, K7
	MOVQ      R8, SI
	MOVQ      b+16(FP), BX
	ADDQ      R9, BX
	MOVQ      k+32(FP), CX
	SHRQ      $2, CX
	JZ        widerem

widequad:
	CMPQ     R15, $4
	JEQ      widefma
	LEAQ     (SI)(R15*2), DI
	VMOVUPS  (SI), X8
	VPOR     (SI)(R15*1), X8, X8
	VPOR     (DI), X8, X8
	VPOR     (DI)(R15*1), X8, X8
	VPTESTMD Z30, Z8, K3
	KMOVW    K3, AX
	ROWMASKS(AX)

widefma:
	MOVQ SI, DI
	WIDEP
	WIDEP
	WIDEP
	WIDEP
	MOVQ DI, SI
	DECQ CX
	JNZ  widequad

widerem:
	MOVQ k+32(FP), CX
	ANDQ $3, CX
	JZ   widestore

wideremp:
	VMOVUPS.Z (BX), K1, Z0
	VMOVUPS.Z 64(BX), K2, Z1
	REMFMA2((SI), Z12, Z16)
	REMFMA2((SI)(DX*1), Z13, Z17)
	REMFMA2((SI)(DX*2), Z14, Z18)
	REMFMA2((SI)(R11*1), Z15, Z19)
	ADDQ      R15, SI
	ADDQ      R13, BX
	DECQ      CX
	JNZ       wideremp

widestore:
	LEAQ    (R12)(R9*1), DI
	VMOVUPS Z12, K1, (DI)
	VMOVUPS Z13, K1, (DI)(R13*1)
	VMOVUPS Z14, K1, (DI)(R13*2)
	VMOVUPS Z15, K1, (DI)(R14*1)
	VMOVUPS Z16, K2, 64(DI)
	VMOVUPS Z17, K2, 64(DI)(R13*1)
	VMOVUPS Z18, K2, 64(DI)(R13*2)
	VMOVUPS Z19, K2, 64(DI)(R14*1)
	ADDQ    $128, R9
	CMPQ    R9, n8b-8(SP)
	JLT     widepass

	// The block's column tails, four rows at a time, sharing each B
	// load; AX, R9, DI address the quad's terms 1–3.
tiletails:
	KORTESTW  K5, K5
	JZ        tilenext
	MOVQ      n8b-8(SP), AX
	LEAQ      (R12)(AX*1), DI
	MOVQ      b+16(FP), BX
	ADDQ      AX, BX
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
	LEAQ      (SI)(R15*1), AX
	LEAQ      (SI)(R15*2), R9
	LEAQ      (AX)(R15*2), DI
	TAILQUAD((SI), (AX), (R9), (DI), Z12)
	TAILQUAD((SI)(DX*1), (AX)(DX*1), (R9)(DX*1), (DI)(DX*1), Z13)
	TAILQUAD((SI)(DX*2), (AX)(DX*2), (R9)(DX*2), (DI)(DX*2), Z14)
	TAILQUAD((SI)(R11*1), (AX)(R11*1), (R9)(R11*1), (DI)(R11*1), Z15)
	LEAQ      (SI)(R15*4), SI
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
	ADDQ      R15, SI
	ADDQ      R13, BX
	DECQ      CX
	JNZ       tiletailremp

tiletailstore:
	MOVQ    n8b-8(SP), AX
	LEAQ    (R12)(AX*1), DI
	VMOVUPS Z12, K5, (DI)
	VMOVUPS Z13, K5, (DI)(R13*1)
	VMOVUPS Z14, K5, (DI)(R13*2)
	VMOVUPS Z15, K5, (DI)(R14*1)

tilenext:
	LEAQ (R12)(R13*4), R12
	LEAQ (R8)(DX*4), R8
	SUBQ $4, tr-16(SP)
	SUBQ $4, rb-24(SP)
	JNZ  tiletails
	CMPQ tr-16(SP), $0
	JNZ  tileblock

	// Every other row alone. DX, R11 = 1·, 3·(A step per p); R9 = the
	// panel's column offset and R10 the vector bytes from it on, which
	// is where the tail starts. Groups in K1–K4, Z12–Z15; the tail in
	// K7 (K5 in the last panel, else empty), Z16.
rows:
	MOVQ m+24(FP), AX
	SUBQ tile+64(FP), AX
	JZ   done
	MOVQ ap+56(FP), DX
	SHLQ $2, DX
	LEAQ (DX)(DX*2), R11

rowloop:
	XORL R9, R9

rowpanel:
	MOVQ  n8b-8(SP), R10
	SUBQ  R9, R10
	MOVQ  $-1, R15
	CMPQ  R10, $256
	JGE   rowmasks
	MOVQ  R10, CX
	SHRQ  $2, CX
	MOVL  $1, R15
	SHLQ  CX, R15
	DECQ  R15

rowmasks:
	KMOVW R15, K1
	SHRQ  $16, R15
	KMOVW R15, K2
	SHRQ  $16, R15
	KMOVW R15, K3
	SHRQ  $16, R15
	KMOVW R15, K4
	KXORW K7, K7, K7
	CMPQ  R10, $256
	JGT   rowload
	KMOVW K5, K7

rowload:
	LEAQ      (R12)(R9*1), DI
	VMOVUPS.Z (DI), K1, Z12
	VMOVUPS.Z 64(DI), K2, Z13
	VMOVUPS.Z 128(DI), K3, Z14
	VMOVUPS.Z 192(DI), K4, Z15
	VMOVUPS.Z (DI)(R10*1), K7, Z16
	MOVQ      R8, SI
	MOVQ      b+16(FP), BX
	ADDQ      R9, BX
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
	PANELGROUP(0, K1, Z12)
	KORTESTW     K2, K2
	JZ           rowquadtail
	PANELGROUP(64, K2, Z13)
	KORTESTW     K3, K3
	JZ           rowquadtail
	PANELGROUP(128, K3, Z14)
	KORTESTW     K4, K4
	JZ           rowquadtail
	PANELGROUP(192, K4, Z15)

rowquadtail:
	KORTESTW     K7, K7
	JZ           rowquadnext
	LEAQ         (BX)(R10*1), DI
	VMOVUPS.Z    (DI), K7, Z0
	VMOVUPS.Z    (DI)(R13*1), K7, Z1
	VMOVUPS.Z    (DI)(R13*2), K7, Z2
	VMOVUPS.Z    (DI)(R14*1), K7, Z3
	VMULPS       Z0, Z4, Z8
	VMULPS       Z1, Z5, Z9
	VADDPS       Z9, Z8, Z8
	VMULPS       Z2, Z6, Z9
	VADDPS       Z9, Z8, Z8
	VMULPS       Z3, Z7, Z9
	VADDPS       Z9, Z8, Z8
	VADDPS       Z8, Z16, Z16

rowquadnext:
	LEAQ (SI)(DX*4), SI
	LEAQ (BX)(R13*4), BX
	DECQ CX
	JNZ  rowquad

rowrem:
	MOVQ k+32(FP), CX
	ANDQ $3, CX
	JZ   rowstore

rowremp:
	VBROADCASTSS (SI), Z4
	VCMPPS       $4, Z31, Z4, K6
	VMOVUPS.Z    (BX), K1, Z0
	VFMADD231PS  Z0, Z4, K6, Z12
	VMOVUPS.Z    64(BX), K2, Z1
	VFMADD231PS  Z1, Z4, K6, Z13
	VMOVUPS.Z    128(BX), K3, Z2
	VFMADD231PS  Z2, Z4, K6, Z14
	VMOVUPS.Z    192(BX), K4, Z3
	VFMADD231PS  Z3, Z4, K6, Z15
	VMOVUPS.Z    (BX)(R10*1), K7, Z0
	VMULPS       Z0, Z4, Z8
	VADDPS       Z8, Z16, K6, Z16
	ADDQ         DX, SI
	ADDQ         R13, BX
	DECQ         CX
	JNZ          rowremp

rowstore:
	LEAQ    (R12)(R9*1), DI
	VMOVUPS Z12, K1, (DI)
	VMOVUPS Z13, K2, 64(DI)
	VMOVUPS Z14, K3, 128(DI)
	VMOVUPS Z15, K4, 192(DI)
	VMOVUPS Z16, K7, (DI)(R10*1)
	ADDQ    $256, R9
	CMPQ    R9, n8b-8(SP)
	JLT     rowpanel
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
