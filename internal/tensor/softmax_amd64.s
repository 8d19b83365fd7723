//go:build amd64

#include "textflag.h"

// AVX-512F softmax rows: the exponent is math.Exp's amd64 FMA path
// (Shibata's reduction, a degree-7 Taylor polynomial in r/16, four
// squaring steps, then ×2ᵏ) run on 8 float64 lanes, with its constants
// written as the same decimal literals so they assemble to the same
// doubles. math.Exp takes that path whenever the host has AVX and FMA,
// which every asm tier requires, so each lane is bit-identical to the
// scalar call on the arguments the kernel accepts: finite x in
// [−700, 0], where neither the overflow nor the denormal branch of the
// scalar code can fire.

DATA expc<>+0(SB)/8, $1.4426950408889634073599246810018920                    // log2(e)
DATA expc<>+8(SB)/8, $0.69314718055966295651160180568695068359375             // ln2, upper half
DATA expc<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // ln2, lower half
DATA expc<>+24(SB)/8, $0.0625
DATA expc<>+32(SB)/8, $2.4801587301587301587e-5
DATA expc<>+40(SB)/8, $1.9841269841269841270e-4
DATA expc<>+48(SB)/8, $1.3888888888888888889e-3
DATA expc<>+56(SB)/8, $8.3333333333333333333e-3
DATA expc<>+64(SB)/8, $4.1666666666666666667e-2
DATA expc<>+72(SB)/8, $1.6666666666666666667e-1
DATA expc<>+80(SB)/8, $0.5
DATA expc<>+88(SB)/8, $1.0
DATA expc<>+96(SB)/8, $2.0
DATA expc<>+104(SB)/8, $-700.0
GLOBL expc<>(SB), RODATA|NOPTR, $112

// BLOCKMASK sets K1 to the lanes of the next 8-column block: all eight
// while R9 (columns left) ≥ 8, else the low R9 (R13 holds that tail
// mask). The same bits select float32 lanes of a ZMM load or store and
// float64 lanes of a ZMM operation.
#define BLOCKMASK \
	MOVQ    R12, R10; \
	CMPQ    R9, $8; \
	CMOVQLT R13, R10; \
	KMOVW   R10, K1

// SCALED turns the float64 copies of a block's scores in Z2 into the
// exponent arguments alpha·float64(float32(v − max)), max in Z3. The
// float64 difference of two float32 values rounds to float32 exactly as
// the float32 subtraction does (53 ≥ 2·24+2 bits).
#define SCALED \
	VSUBPD    Z3, Z2, Z2; \
	VCVTPD2PS Z2, Y2; \
	VCVTPS2PD Y2, Z2; \
	VMULPD    Z16, Z2, Z2

// LOADBLOCK reads the block at R8 into Z2 as float64; lanes past the row
// keep row[0] (Z1), so every lane holds a value of the row.
#define LOADBLOCK \
	VMOVAPD   Z1, Z2; \
	VCVTPS2PD (R8), K1, Z2

// EXPCONSTS broadcasts the bound and the exponent constants into
// Z17–Z30 for EXPPD.
#define EXPCONSTS \
	VBROADCASTSD expc<>+104(SB), Z17; \
	VBROADCASTSD expc<>+0(SB), Z18; \
	VBROADCASTSD expc<>+8(SB), Z19; \
	VBROADCASTSD expc<>+16(SB), Z20; \
	VBROADCASTSD expc<>+24(SB), Z21; \
	VBROADCASTSD expc<>+32(SB), Z22; \
	VBROADCASTSD expc<>+40(SB), Z23; \
	VBROADCASTSD expc<>+48(SB), Z24; \
	VBROADCASTSD expc<>+56(SB), Z25; \
	VBROADCASTSD expc<>+64(SB), Z26; \
	VBROADCASTSD expc<>+72(SB), Z27; \
	VBROADCASTSD expc<>+80(SB), Z28; \
	VBROADCASTSD expc<>+88(SB), Z29; \
	VBROADCASTSD expc<>+96(SB), Z30

// EXPPD replaces each float64 lane x of Z2 with exp(x), clobbering Z6
// and Z7: k = x·log2(e) rounded to nearest even, r = (x − k·ln2hi −
// k·ln2lo)/16, the degree-7 polynomial p by FMA in descending
// coefficients, r·p, three squarings r·(r+2), a fourth r·(r+2) + 1
// fused, then ×2ᵏ — archExp's avxfma sequence, lane for lane.
#define EXPPD \
	VMULPD        Z18, Z2, Z6; \
	VRNDSCALEPD   $0, Z6, Z6; \
	VFNMADD231PD  Z19, Z6, Z2; \
	VFNMADD231PD  Z20, Z6, Z2; \
	VMULPD        Z21, Z2, Z2; \
	VMOVAPD       Z22, Z7; \
	VFMADD213PD   Z23, Z2, Z7; \
	VFMADD213PD   Z24, Z2, Z7; \
	VFMADD213PD   Z25, Z2, Z7; \
	VFMADD213PD   Z26, Z2, Z7; \
	VFMADD213PD   Z27, Z2, Z7; \
	VFMADD213PD   Z28, Z2, Z7; \
	VFMADD213PD   Z29, Z2, Z7; \
	VMULPD        Z7, Z2, Z2; \
	VADDPD        Z30, Z2, Z7; \
	VMULPD        Z7, Z2, Z2; \
	VADDPD        Z30, Z2, Z7; \
	VMULPD        Z7, Z2, Z2; \
	VADDPD        Z30, Z2, Z7; \
	VMULPD        Z7, Z2, Z2; \
	VADDPD        Z30, Z2, Z7; \
	VFMADD213PD   Z29, Z7, Z2; \
	VSCALEFPD     Z6, Z2, Z2

// func softmaxRowsAsm512(dst, src *float32, rows, cols int, alpha float64) int
// Each row: max, then a check that every exponent argument lies in
// [−700, 0] (NaN and ±Inf in the row fail it), then exp and the
// ascending float64 row sum, then the float32 scale by 1/sum. A row that
// fails the check is left unwritten and the kernel returns the number
// of rows it completed, so the caller runs that row through the scalar
// code and resumes. cols ≥ 1; dst may equal src.
TEXT ·softmaxRowsAsm512(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         rows+16(FP), BX
	MOVQ         cols+24(FP), CX
	VBROADCASTSD alpha+32(FP), Z16
	EXPCONSTS

	MOVQ $0xFF, R12
	MOVQ CX, DX
	ANDQ $7, CX
	MOVQ $1, R13
	SHLQ CX, R13
	DECQ R13                       // tail mask: low cols%8 bits
	MOVQ DX, CX
	SHLQ $2, DX                    // row stride in bytes
	XORQ AX, AX

smrow:
	CMPQ AX, BX
	JGE  smdone

	// Row max.
	VMOVSS       (SI), X1
	VCVTSS2SD    X1, X1, X1
	VBROADCASTSD X1, Z1
	VMOVAPD      Z1, Z3
	MOVQ         SI, R8
	MOVQ         CX, R9

smmax:
	BLOCKMASK
	LOADBLOCK
	VMAXPD Z2, Z3, Z3
	ADDQ   $32, R8
	SUBQ   $8, R9
	JGT    smmax
	VEXTRACTF64X4 $1, Z3, Y4
	VMAXPD        Y4, Y3, Y3
	VEXTRACTF128  $1, Y3, X4
	VMAXPD        X4, X3, X3
	VPERMILPD     $1, X3, X4
	VMAXPD        X4, X3, X3
	VBROADCASTSD  X3, Z3

	// Every exponent argument must lie in [−700, 0]; leave otherwise.
	MOVQ SI, R8
	MOVQ CX, R9

smcheck:
	BLOCKMASK
	LOADBLOCK
	SCALED
	VCMPPD   $0x19, Z17, Z2, K2    // NGE_UQ: x < −700 or unordered
	KORTESTW K2, K2
	JNZ      smdone
	ADDQ     $32, R8
	SUBQ     $8, R9
	JGT      smcheck

	// e = exp(x) per lane, stored as float32; sum += e in column order.
	VXORPD X5, X5, X5
	MOVQ   SI, R8
	MOVQ   DI, R11
	MOVQ   CX, R9

smexp:
	BLOCKMASK
	LOADBLOCK
	SCALED
	EXPPD
	VMOVAPD.Z     Z2, K1, Z2       // lanes past the row add +0 below
	VCVTPD2PS     Z2, Y8
	VMOVUPS       Z8, K1, (R11)
	VADDSD        X2, X5, X5
	VPERMILPD     $1, X2, X9
	VADDSD        X9, X5, X5
	VEXTRACTF32X4 $1, Z2, X9
	VADDSD        X9, X5, X5
	VPERMILPD     $1, X9, X9
	VADDSD        X9, X5, X5
	VEXTRACTF32X4 $2, Z2, X9
	VADDSD        X9, X5, X5
	VPERMILPD     $1, X9, X9
	VADDSD        X9, X5, X5
	VEXTRACTF32X4 $3, Z2, X9
	VADDSD        X9, X5, X5
	VPERMILPD     $1, X9, X9
	VADDSD        X9, X5, X5
	ADDQ          $32, R8
	ADDQ          $32, R11
	SUBQ          $8, R9
	JGT           smexp

	// dst *= float32(1/sum).
	VMOVSD       expc<>+88(SB), X9
	VDIVSD       X5, X9, X9
	VCVTSD2SS    X9, X9, X9
	VBROADCASTSS X9, Y9
	MOVQ         DI, R11
	MOVQ         CX, R9

smnorm:
	BLOCKMASK
	VMOVUPS.Z (R11), K1, Z8
	VMULPS    Y9, Y8, Y8
	VMOVUPS   Z8, K1, (R11)
	ADDQ      $32, R11
	SUBQ      $8, R9
	JGT       smnorm

	INCQ AX
	ADDQ DX, SI
	ADDQ DX, DI
	JMP  smrow

smdone:
	MOVQ AX, ret+40(FP)
	VZEROUPPER
	RET

// func expAsm512(x *[8]float64)
// Replaces each of the eight values with EXPPD's exp: the lane kernel
// alone, for the test that holds it to math.Exp.
TEXT ·expAsm512(SB), NOSPLIT, $0-8
	MOVQ    x+0(FP), AX
	EXPCONSTS
	VMOVUPD (AX), Z2
	EXPPD
	VMOVUPD Z2, (AX)
	VZEROUPPER
	RET
