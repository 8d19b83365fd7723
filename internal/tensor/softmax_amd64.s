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
DATA expc<>+112(SB)/8, $0xFFF0000000000000                                  // −Inf
GLOBL expc<>(SB), RODATA|NOPTR, $120

// BLOCKMASK sets K1 to the lanes of the next 8-column block: all eight
// while R9 (columns left) ≥ 8, else the low R9 (R13 holds that tail
// mask). The same bits select float32 lanes of a ZMM load or store and
// float64 lanes of a ZMM operation. Clobbers BX.
#define BLOCKMASK \
	MOVL    $0xFF, BX; \
	CMPQ    R9, $8; \
	CMOVQLT R13, BX; \
	KMOVW   BX, K1

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

// EXPCONSTS loads the exponent's constants: the bound, log2(e), ln2
// in two halves, 1/16, 1 and 2 into Z17–Z21, Z29 and Z30, and the
// table's address into R12 for the polynomial's coefficients, which
// EXPPD takes from memory to leave registers for eight chains.
#define EXPCONSTS \
	VBROADCASTSD expc<>+104(SB), Z17; \
	VBROADCASTSD expc<>+0(SB), Z18; \
	VBROADCASTSD expc<>+8(SB), Z19; \
	VBROADCASTSD expc<>+16(SB), Z20; \
	VBROADCASTSD expc<>+24(SB), Z21; \
	VBROADCASTSD expc<>+88(SB), Z29; \
	VBROADCASTSD expc<>+96(SB), Z30; \
	LEAQ         expc<>(SB), R12

// EXPPD(x, k, p) replaces each float64 lane of x with exp(x), clobbering
// k and p: k = x·log2(e) rounded to nearest even, r = (x − k·ln2hi −
// k·ln2lo)/16, the degree-7 polynomial p by FMA in descending
// coefficients, r·p, three squarings r·(r+2), a fourth r·(r+2) + 1
// fused, then ×2ᵏ — archExp's avxfma sequence, lane for lane, in five
// steps EXP1–EXP5.
#define EXP1(x, k) \
	VMULPD       Z18, x, k; \
	VRNDSCALEPD  $0, k, k; \
	VFNMADD231PD Z19, k, x; \
	VFNMADD231PD Z20, k, x; \
	VMULPD       Z21, x, x

#define EXP2(x, p) \
	VBROADCASTSD     32(R12), p; \
	VFMADD213PD.BCST 40(R12), x, p; \
	VFMADD213PD.BCST 48(R12), x, p; \
	VFMADD213PD.BCST 56(R12), x, p

#define EXP3(x, p) \
	VFMADD213PD.BCST 64(R12), x, p; \
	VFMADD213PD.BCST 72(R12), x, p; \
	VFMADD213PD.BCST 80(R12), x, p; \
	VFMADD213PD      Z29, x, p

#define EXP4(x, p) \
	VMULPD p, x, x; \
	VADDPD Z30, x, p; \
	VMULPD p, x, x; \
	VADDPD Z30, x, p

#define EXP5(x, k, p) \
	VFMADD213PD Z29, p, x; \
	VSCALEFPD   k, x, x

#define EXPPD(x, k, p) \
	EXP1(x, k); \
	EXP2(x, p); \
	EXP3(x, p); \
	EXP4(x, p); \
	EXP4(x, p); \
	EXP5(x, k, p)

// EXPPD8 is EXPPD on Z0–Z7 (k in Z8–Z15, p in Z22–Z28 and Z31) one step
// at a time, so that eight independent chains share the scheduler
// instead of one.
#define EXPPD8 \
	EXP1(Z0, Z8); EXP1(Z1, Z9); EXP1(Z2, Z10); EXP1(Z3, Z11); EXP1(Z4, Z12); EXP1(Z5, Z13); EXP1(Z6, Z14); EXP1(Z7, Z15); \
	EXP2(Z0, Z22); EXP2(Z1, Z23); EXP2(Z2, Z24); EXP2(Z3, Z25); EXP2(Z4, Z26); EXP2(Z5, Z27); EXP2(Z6, Z28); EXP2(Z7, Z31); \
	EXP3(Z0, Z22); EXP3(Z1, Z23); EXP3(Z2, Z24); EXP3(Z3, Z25); EXP3(Z4, Z26); EXP3(Z5, Z27); EXP3(Z6, Z28); EXP3(Z7, Z31); \
	EXP4(Z0, Z22); EXP4(Z1, Z23); EXP4(Z2, Z24); EXP4(Z3, Z25); EXP4(Z4, Z26); EXP4(Z5, Z27); EXP4(Z6, Z28); EXP4(Z7, Z31); \
	EXP4(Z0, Z22); EXP4(Z1, Z23); EXP4(Z2, Z24); EXP4(Z3, Z25); EXP4(Z4, Z26); EXP4(Z5, Z27); EXP4(Z6, Z28); EXP4(Z7, Z31); \
	EXP5(Z0, Z8, Z22); EXP5(Z1, Z9, Z23); EXP5(Z2, Z10, Z24); EXP5(Z3, Z11, Z25); EXP5(Z4, Z12, Z26); EXP5(Z5, Z13, Z27); EXP5(Z6, Z14, Z28); EXP5(Z7, Z15, Z31)

// A group is eight rows, row r at base + r·DX; with R14 = 3·DX the
// eight addresses of one block are (a), (a)(DX*1), (a)(DX*2),
// (a)(R14*1) for the first four rows and the same from b = a + 4·DX.

// GMAX folds the block at addr into the row maximum m under K1.
#define GMAX(addr, m) \
	VCVTPS2PD.Z addr, K1, Z8; \
	VMAXPD      Z8, m, K1, m

// HMAX8 reduces the row maxima Z0–Z7 to one vector of eight lanes
// (halves, then quarters, then pairs) and stores it at 0(SP): row r's
// maximum lands at 16·(r%4) + 8·(r/4).
#define HMAX8 \
	VSHUFF64X2 $0x44, Z1, Z0, Z8; \
	VSHUFF64X2 $0xEE, Z1, Z0, Z9; \
	VMAXPD     Z9, Z8, Z0; \
	VSHUFF64X2 $0x44, Z3, Z2, Z8; \
	VSHUFF64X2 $0xEE, Z3, Z2, Z9; \
	VMAXPD     Z9, Z8, Z2; \
	VSHUFF64X2 $0x44, Z5, Z4, Z8; \
	VSHUFF64X2 $0xEE, Z5, Z4, Z9; \
	VMAXPD     Z9, Z8, Z4; \
	VSHUFF64X2 $0x44, Z7, Z6, Z8; \
	VSHUFF64X2 $0xEE, Z7, Z6, Z9; \
	VMAXPD     Z9, Z8, Z6; \
	VSHUFF64X2 $0x88, Z2, Z0, Z8; \
	VSHUFF64X2 $0xDD, Z2, Z0, Z9; \
	VMAXPD     Z9, Z8, Z0; \
	VSHUFF64X2 $0x88, Z6, Z4, Z8; \
	VSHUFF64X2 $0xDD, Z6, Z4, Z9; \
	VMAXPD     Z9, Z8, Z4; \
	VUNPCKLPD  Z4, Z0, Z8; \
	VUNPCKHPD  Z4, Z0, Z9; \
	VMAXPD     Z9, Z8, Z0; \
	VMOVUPD    Z0, 0(SP)

// GCHECK ORs into K3 the lanes under K1 of the block at addr whose
// exponent argument (row maximum at mx) is not in [−700, 0].
#define GCHECK(addr, mx) \
	VCVTPS2PD.Z addr, K1, Z8; \
	VSUBPD.BCST mx, Z8, Z8; \
	VCVTPD2PS   Z8, Y8; \
	VCVTPS2PD   Y8, Z8; \
	VMULPD      Z16, Z8, Z8; \
	VCMPPD      $0x19, Z17, Z8, K1, K2; \
	KORW        K2, K3, K3

// GSCALED loads the block at src into e as the exponent arguments
// alpha·float64(float32(v − max)), row maximum at mx, lanes past the
// row from +0.
#define GSCALED(src, mx, e, ey) \
	VCVTPS2PD.Z src, K1, e; \
	VSUBPD.BCST mx, e, e; \
	VCVTPD2PS   e, ey; \
	VCVTPS2PD   ey, e; \
	VMULPD      Z16, e, e

// GSTORE stores e as float32 at dst, a whole block. The normalising
// pass reloads it at once, and a load takes its data from an earlier
// store in flight only when that store was not masked, so GSTORET parks
// the last, partial block in the frame at off whole, after zeroing the
// lanes of e past the row.
#define GSTORET(e, off) \
	VMOVAPD.Z e, K1, e; \
	VCVTPD2PS e, Y9; \
	VMOVUPS   Y9, off(SP)

#define GSTORE(e, dst) \
	VCVTPD2PS e, Y9; \
	VMOVUPS   Y9, dst

// COLSUM transposes the eight rows' exponentials Z0–Z7 (8×8 float64) and
// adds the columns to the row sums at sums in ascending column order,
// one vertical add per column, leaving the sums in Z8 too.
#define COLSUM(sums) \
	VMOVUPD    sums, Z8; \
	VUNPCKLPD  Z1, Z0, Z9; \
	VUNPCKHPD  Z1, Z0, Z1; \
	VUNPCKLPD  Z3, Z2, Z0; \
	VUNPCKHPD  Z3, Z2, Z3; \
	VUNPCKLPD  Z5, Z4, Z2; \
	VUNPCKHPD  Z5, Z4, Z5; \
	VUNPCKLPD  Z7, Z6, Z4; \
	VUNPCKHPD  Z7, Z6, Z7; \
	VSHUFF64X2 $0x88, Z0, Z9, Z6; \
	VSHUFF64X2 $0xDD, Z0, Z9, Z0; \
	VSHUFF64X2 $0x88, Z3, Z1, Z9; \
	VSHUFF64X2 $0xDD, Z3, Z1, Z3; \
	VSHUFF64X2 $0x88, Z4, Z2, Z1; \
	VSHUFF64X2 $0xDD, Z4, Z2, Z4; \
	VSHUFF64X2 $0x88, Z7, Z5, Z2; \
	VSHUFF64X2 $0xDD, Z7, Z5, Z7; \
	VSHUFF64X2 $0x88, Z1, Z6, Z5; \
	VADDPD     Z5, Z8, Z8; \
	VSHUFF64X2 $0x88, Z2, Z9, Z5; \
	VADDPD     Z5, Z8, Z8; \
	VSHUFF64X2 $0x88, Z4, Z0, Z5; \
	VADDPD     Z5, Z8, Z8; \
	VSHUFF64X2 $0x88, Z7, Z3, Z5; \
	VADDPD     Z5, Z8, Z8; \
	VSHUFF64X2 $0xDD, Z1, Z6, Z5; \
	VADDPD     Z5, Z8, Z8; \
	VSHUFF64X2 $0xDD, Z2, Z9, Z5; \
	VADDPD     Z5, Z8, Z8; \
	VSHUFF64X2 $0xDD, Z4, Z0, Z5; \
	VADDPD     Z5, Z8, Z8; \
	VSHUFF64X2 $0xDD, Z7, Z3, Z5; \
	VADDPD     Z5, Z8, Z8; \
	VMOVUPD    Z8, sums

// GNORM scales a whole block at addr by the float32 at inv; GNORMT
// scales the partial block parked at off into addr under K1.
#define GNORMT(addr, inv, off) \
	VBROADCASTSS inv, Y8; \
	VMULPS       off(SP), Y8, Y8; \
	VMOVUPS      Z8, K1, addr

#define GNORM(addr, inv) \
	VBROADCASTSS inv, Y8; \
	VMULPS       addr, Y8, Y8; \
	VMOVUPS      Y8, addr

// func softmaxRowsAsm512(dst, src *float32, rows, cols int, alpha float64) int
// Each row: max, then a check that every exponent argument lies in
// [−700, 0] (NaN and ±Inf in the row fail it), then exp and the
// ascending float64 row sum, then the float32 scale by 1/sum. Rows go
// eight at a time, one float64 lane per row: each pass runs over the
// group's eight rows block by block, the exponentials of a block are
// transposed so that every row's sum is a chain of vertical adds in
// column order, and one divide serves the group. A group with a row
// that fails the check, and the last rows%8 rows, run one row at a
// time: a row that fails is left unwritten, the rows before it are
// written, and the kernel returns the number of rows it completed, so
// the caller runs that row through the scalar code and resumes.
// cols ≥ 1; dst may equal src. The frame holds a group's eight row
// maxima (float64, 0–56), scales (float32, 64–92), sums (float64,
// 96–152) and the float32 exponentials of its last partial block
// (160–415, 32 bytes a row).
TEXT ·softmaxRowsAsm512(SB), NOSPLIT, $416-48
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         cols+24(FP), CX
	VBROADCASTSD alpha+32(FP), Z16
	EXPCONSTS

	MOVQ CX, DX
	ANDQ $7, CX
	MOVQ $1, R13
	SHLQ CX, R13
	DECQ R13                       // tail mask: low cols%8 bits
	MOVQ DX, CX
	SHLQ $2, DX                    // row stride in bytes
	LEAQ (DX)(DX*2), R14
	XORQ AX, AX

smnext:
	MOVQ rows+16(FP), R10
	CMPQ AX, R10
	JGE  smdone
	SUBQ AX, R10
	CMPQ R10, $8
	JGE  smgroup
	MOVQ rows+16(FP), R10          // the last rows run one at a time
	JMP  smrow

smgroup:
	// Row maxima: Z0–Z7 start at −Inf and take each block's lanes.
	VBROADCASTSD 112(R12), Z0
	VMOVAPD      Z0, Z1
	VMOVAPD      Z0, Z2
	VMOVAPD      Z0, Z3
	VMOVAPD      Z0, Z4
	VMOVAPD      Z0, Z5
	VMOVAPD      Z0, Z6
	VMOVAPD      Z0, Z7
	MOVQ         SI, R8
	LEAQ         (SI)(DX*4), R10
	MOVQ         CX, R9

gmax:
	BLOCKMASK
	GMAX((R8), Z0)
	GMAX((R8)(DX*1), Z1)
	GMAX((R8)(DX*2), Z2)
	GMAX((R8)(R14*1), Z3)
	GMAX((R10), Z4)
	GMAX((R10)(DX*1), Z5)
	GMAX((R10)(DX*2), Z6)
	GMAX((R10)(R14*1), Z7)
	ADDQ $32, R8
	ADDQ $32, R10
	SUBQ $8, R9
	JGT  gmax
	HMAX8

	// Every exponent argument of the group must lie in [−700, 0];
	// otherwise the group runs one row at a time.
	KXORW K3, K3, K3
	MOVQ  SI, R8
	LEAQ  (SI)(DX*4), R10
	MOVQ  CX, R9

gcheck:
	BLOCKMASK
	GCHECK((R8), 0(SP))
	GCHECK((R8)(DX*1), 16(SP))
	GCHECK((R8)(DX*2), 32(SP))
	GCHECK((R8)(R14*1), 48(SP))
	GCHECK((R10), 8(SP))
	GCHECK((R10)(DX*1), 24(SP))
	GCHECK((R10)(DX*2), 40(SP))
	GCHECK((R10)(R14*1), 56(SP))
	KORTESTW K3, K3
	JNZ      gfallback
	ADDQ     $32, R8
	ADDQ     $32, R10
	SUBQ     $8, R9
	JGT      gcheck

	// e = exp(x) per lane, stored as float32; the row sums add the
	// columns of each block in order.
	VPXORQ  Z8, Z8, Z8
	VMOVUPD Z8, 96(SP)
	MOVQ   SI, R8
	LEAQ   (SI)(DX*4), R10
	MOVQ   DI, R11
	LEAQ   (DI)(DX*4), R15
	MOVQ   CX, R9

gexp:
	BLOCKMASK
	GSCALED((R8), 0(SP), Z0, Y0)
	GSCALED((R8)(DX*1), 16(SP), Z1, Y1)
	GSCALED((R8)(DX*2), 32(SP), Z2, Y2)
	GSCALED((R8)(R14*1), 48(SP), Z3, Y3)
	GSCALED((R10), 8(SP), Z4, Y4)
	GSCALED((R10)(DX*1), 24(SP), Z5, Y5)
	GSCALED((R10)(DX*2), 40(SP), Z6, Y6)
	GSCALED((R10)(R14*1), 56(SP), Z7, Y7)
	EXPPD8
	CMPQ R9, $8
	JLT  gexptail
	GSTORE(Z0, (R11))
	GSTORE(Z1, (R11)(DX*1))
	GSTORE(Z2, (R11)(DX*2))
	GSTORE(Z3, (R11)(R14*1))
	GSTORE(Z4, (R15))
	GSTORE(Z5, (R15)(DX*1))
	GSTORE(Z6, (R15)(DX*2))
	GSTORE(Z7, (R15)(R14*1))
	JMP  gexpsum

gexptail:
	GSTORET(Z0, 160)
	GSTORET(Z1, 192)
	GSTORET(Z2, 224)
	GSTORET(Z3, 256)
	GSTORET(Z4, 288)
	GSTORET(Z5, 320)
	GSTORET(Z6, 352)
	GSTORET(Z7, 384)

gexpsum:
	COLSUM(96(SP))
	ADDQ $32, R8
	ADDQ $32, R10
	ADDQ $32, R11
	ADDQ $32, R15
	SUBQ $8, R9
	JGT  gexp

	// dst *= float32(1/sum), one divide for the eight rows.
	VDIVPD    Z8, Z29, Z10
	VCVTPD2PS Z10, Y10
	VMOVUPS   Y10, 64(SP)
	MOVQ      DI, R11
	LEAQ      (DI)(DX*4), R15
	MOVQ      CX, R9

gnorm:
	CMPQ    R9, $8
	JLT     gnormtail
	GNORM((R11), 64(SP))
	GNORM((R11)(DX*1), 68(SP))
	GNORM((R11)(DX*2), 72(SP))
	GNORM((R11)(R14*1), 76(SP))
	GNORM((R15), 80(SP))
	GNORM((R15)(DX*1), 84(SP))
	GNORM((R15)(DX*2), 88(SP))
	GNORM((R15)(R14*1), 92(SP))
	ADDQ $32, R11
	ADDQ $32, R15
	SUBQ $8, R9
	JGT  gnorm
	JMP  gdone

gnormtail:
	BLOCKMASK
	GNORMT((R11), 64(SP), 160)
	GNORMT((R11)(DX*1), 68(SP), 192)
	GNORMT((R11)(DX*2), 72(SP), 224)
	GNORMT((R11)(R14*1), 76(SP), 256)
	GNORMT((R15), 80(SP), 288)
	GNORMT((R15)(DX*1), 84(SP), 320)
	GNORMT((R15)(DX*2), 88(SP), 352)
	GNORMT((R15)(R14*1), 92(SP), 384)

gdone:
	ADDQ $8, AX
	LEAQ (SI)(DX*8), SI
	LEAQ (DI)(DX*8), DI
	JMP  smnext

gfallback:
	LEAQ 8(AX), R10                // the group's rows, one at a time

smrow:
	// One row, until row R10. Row max.
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
	EXPPD(Z2, Z6, Z7)
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
	VMOVSD       88(R12), X9
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
	CMPQ AX, R10
	JLT  smrow
	JMP  smnext

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
	EXPPD(Z2, Z6, Z7)
	VMOVUPD Z2, (AX)
	VZEROUPPER
	RET

// func colsumAsm512(e *[64]float64, sums *[8]float64)
// sums[r] += e[8r], …, e[8r+7]: COLSUM alone, for the test of its order.
TEXT ·colsumAsm512(SB), NOSPLIT, $0-16
	MOVQ    e+0(FP), AX
	MOVQ    sums+8(FP), BX
	VMOVUPD (AX), Z0
	VMOVUPD 64(AX), Z1
	VMOVUPD 128(AX), Z2
	VMOVUPD 192(AX), Z3
	VMOVUPD 256(AX), Z4
	VMOVUPD 320(AX), Z5
	VMOVUPD 384(AX), Z6
	VMOVUPD 448(AX), Z7
	COLSUM((BX))
	VZEROUPPER
	RET
