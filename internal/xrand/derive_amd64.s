//go:build amd64

#include "textflag.h"

// The avx512 tier's full re-seed of Source's register, eight words per
// step: each word is its three LCG values, shifted left 40, 20 and 0,
// xored together and with cooked. Every value is reduced to its exact
// residue modulo 2³¹−1, so the words equal Source.word's bit for bit. A
// fold adds the bits from 31 up onto the low 31 (2³¹ ≡ 1), leaving a
// product below 2⁶² at most 2(2³¹−1); VPMINUQ of x and x − (2³¹−1) then
// subtracts the modulus where x reaches it, as the difference wraps
// above 2⁶³ where x does not. AVX-512F only.

// REDUCE leaves x mod 2³¹−1 in x for a product x < 2⁶² of two nonzero
// residues, using t; Z1 holds 2³¹−1.
#define REDUCE(x, t) \
	VPANDQ  Z1, x, t; \
	VPSRLQ  $31, x, x; \
	VPADDQ  t, x, x; \
	VPSUBQ  Z1, x, t; \
	VPMINUQ t, x, x

// func deriveAsm512(vec *int64, pow *uint32, cooked *int64, seed uint64, n int)
TEXT ·deriveAsm512(SB), NOSPLIT, $0-40
	MOVQ         vec+0(FP), DI
	MOVQ         pow+8(FP), SI
	MOVQ         cooked+16(FP), DX
	MOVQ         n+32(FP), CX
	VPBROADCASTQ seed+24(FP), Z0
	MOVL         $0x7fffffff, AX
	VPBROADCASTQ AX, Z1                // the modulus
	MOVL         $48271, AX
	VPBROADCASTQ AX, Z2                // the LCG multiplier
	XORQ         BX, BX

loop:
	CMPQ      BX, CX
	JGE       done
	VPMOVZXDQ (SI)(BX*4), Z3           // the words' first powers
	VPMULUDQ  Z0, Z3, Z3
	REDUCE(Z3, Z4)                     // first value
	VPMULUDQ  Z2, Z3, Z5
	REDUCE(Z5, Z4)                     // second value
	VPMULUDQ  Z2, Z5, Z6
	REDUCE(Z6, Z4)                     // third value
	VPSLLQ    $40, Z3, Z3
	VPSLLQ    $20, Z5, Z5
	VPTERNLOGQ $0x96, Z6, Z5, Z3       // Z3 ^ Z5 ^ Z6
	VPXORQ    (DX)(BX*8), Z3, Z3
	VMOVDQU64 Z3, (DI)(BX*8)
	ADDQ      $8, BX
	JMP       loop

done:
	VZEROUPPER
	RET
