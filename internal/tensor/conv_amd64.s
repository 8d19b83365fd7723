//go:build amd64

#include "textflag.h"

// The avx512 tier's convolution plumbing: im2col/col2im, the copies in
// and out of the zero-bordered planes, the pooling backward's broadcast
// and the two ReLU epilogues. None of them reorders a float operation of
// the Go bodies in conv.go and gemm.go: im2col, the copies and
// ReluMaskInto only copy or select bits, col2im adds each element's
// terms in the Go body's order, and the products and the bias add take
// the Go expression's left operand as the first source, so a NaN there
// keeps its payload as it does in Go. AVX-512F forms only, as in
// gemm_amd64.s; 128-bit stores use the VEX encoding.

// func im2colAsm512(dst, src *float32, inCh, ph, pw, k, s, oh, ow, tail int)
//
// Unrolls the windows of the zero-bordered planes src (inCh, ph, pw)
// into dst, (oh·ow) rows of inCh·k·k taps, for k ≤ 4. dst is written in
// order, one kernel row of k taps at a time: a masked load of the k taps
// (lanes past k read as +0) and a 16-byte store, whose lanes past k the
// next kernel rows' stores overwrite. The last tail output positions,
// whose 16-byte stores would reach past dst's end, store under the
// k-lane mask instead. k = 3 takes a channel's three kernel rows per
// pass.
TEXT ·im2colAsm512(SB), NOSPLIT, $0-80
	MOVQ  dst+0(FP), DI
	MOVQ  src+8(FP), SI
	MOVQ  k+40(FP), CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1               // the k taps
	MOVQ  pw+32(FP), R8
	SHLQ  $2, R8               // plane row, bytes
	MOVQ  ph+24(FP), DX
	IMULQ R8, DX               // plane, bytes
	MOVQ  k+40(FP), R9
	IMULQ R8, R9
	NEGQ  R9
	ADDQ  DX, R9               // next channel, from past the window's last row
	MOVQ  k+40(FP), R10
	SHLQ  $2, R10              // kernel row in dst, bytes
	MOVQ  s+48(FP), R11
	SHLQ  $2, R11              // next window along the row
	MOVQ  R8, R12
	IMULQ s+48(FP), R12
	MOVQ  ow+64(FP), AX
	IMULQ R11, AX
	SUBQ  AX, R12              // next output row, from past its last window
	MOVQ  oh+56(FP), R13
	IMULQ ow+64(FP), R13       // output positions left
	MOVQ  ow+64(FP), R14

pos:
	MOVQ SI, BX
	MOVQ inCh+16(FP), R15
	CMPQ R13, tail+72(FP)
	JLE  masked
	CMPQ R10, $12
	JNE  channel

channel3:
	VMOVUPS.Z (BX), K1, Z0
	VMOVUPS.Z (BX)(R8*1), K1, Z1
	VMOVUPS.Z (BX)(R8*2), K1, Z2
	VMOVUPS   X0, (DI)
	VMOVUPS   X1, 12(DI)
	VMOVUPS   X2, 24(DI)
	ADDQ      $36, DI
	ADDQ      DX, BX
	DECQ      R15
	JNZ       channel3
	JMP       next

channel:
	MOVQ k+40(FP), CX

kernelrow:
	VMOVUPS.Z (BX), K1, Z0
	VMOVUPS   X0, (DI)
	ADDQ      R10, DI
	ADDQ      R8, BX
	DECQ      CX
	JNZ       kernelrow
	ADDQ      R9, BX
	DECQ      R15
	JNZ       channel
	JMP       next

masked:
	MOVQ k+40(FP), CX

maskedrow:
	VMOVUPS.Z (BX), K1, Z0
	VMOVUPS   Z0, K1, (DI)
	ADDQ      R10, DI
	ADDQ      R8, BX
	DECQ      CX
	JNZ       maskedrow
	ADDQ      R9, BX
	DECQ      R15
	JNZ       masked

next:
	ADDQ R11, SI
	DECQ R14
	JNZ  nextpos
	ADDQ R12, SI
	MOVQ ow+64(FP), R14

nextpos:
	DECQ R13
	JNZ  pos
	VZEROUPPER
	RET

// func col2imAsm512(plane, col *float32, inCh, ph, pw, k, s, oh, ow int)
//
// Adds the column matrix col ((oh·ow) rows of inCh·k·k taps) into the
// zero-bordered planes (inCh, ph, pw), window by window.
//
// The planes' rows are worked in chunks of 16 columns. Per chunk, the
// 16-bit lane mask of every output column ox whose window meets the
// chunk (its k taps at lanes ox·s − c0 …, clipped) goes into a table on
// the stack, once. Then each plane row's chunk is one register, loaded
// and stored once: for every output row oy whose windows cover the
// plane row (kernel row ky = y − oy·s, oy ascending), each window's taps
// are added into it under the window's mask, ox ascending. Two channels
// go side by side, in two registers, so their chains of dependent adds
// overlap; an odd channel out goes beside itself. So every
// plane element takes its additions in ascending output-position order,
// as the Go body's do, and no row makes a round trip through memory
// between them. Lanes a mask leaves off touch no memory, so a window's
// base address may lie outside col. k ≤ 16.
//
// Locals (hardware SP): 0–63 the mask table (at most 16+k windows meet
// a chunk), then per chunk its column c0, col's offset at the chunk's
// first window and the table's length in bytes; the strides; and per
// plane row y its kernel row to start at and the quotient and remainder
// of y − that row by s.
TEXT ·col2imAsm512(SB), NOSPLIT, $184-72
	MOVQ  k+40(FP), CX
	MOVL  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	MOVQ  AX, 136(SP)          // the k-tap mask
	MOVQ  pw+32(FP), AX
	SHLQ  $2, AX
	MOVQ  AX, 128(SP)          // plane row, bytes
	IMULQ ph+24(FP), AX
	MOVQ  AX, 104(SP)          // plane, bytes
	MOVQ  k+40(FP), AX
	SHLQ  $2, AX
	MOVQ  AX, 120(SP)          // kernel row in col, bytes
	IMULQ k+40(FP), AX
	MOVQ  AX, 112(SP)          // channel in col, bytes
	IMULQ inCh+16(FP), AX
	MOVQ  AX, 144(SP)          // col row, bytes
	MOVQ  AX, R11
	MOVQ  ow+64(FP), DX
	IMULQ AX, DX
	MOVQ  DX, 96(SP)           // col rows per output row, bytes
	MOVQ  s+48(FP), DX
	SHLQ  $2, DX
	SUBQ  DX, R11              // col step per window: a row on, lanes s on
	MOVQ  $0, 64(SP)

chunk:
	MOVQ  64(SP), BX           // c0
	MOVQ  pw+32(FP), AX
	SUBQ  BX, AX
	JLE   done
	MOVL  $0xFFFF, DX
	CMPQ  AX, $16
	JGE   rowmask
	MOVQ  AX, CX
	MOVL  $1, DX
	SHLL  CX, DX
	DECL  DX

rowmask:
	KMOVW DX, K2               // the chunk's plane columns
	XORQ  R8, R8               // ox
	MOVQ  BX, R9
	NEGQ  R9                   // sh = ox·s − c0
	MOVQ  k+40(FP), DX

firstwin:
	CMPQ  R8, ow+64(FP)
	JGE   nextchunk
	LEAQ  (R9)(DX*1), AX
	CMPQ  AX, $0
	JG    found
	INCQ  R8
	ADDQ  s+48(FP), R9
	JMP   firstwin

found:
	MOVQ  R8, AX
	IMULQ 144(SP), AX
	MOVQ  R9, DX
	SHLQ  $2, DX
	SUBQ  DX, AX
	MOVQ  AX, 72(SP)           // col offset of the first window's lane 0
	LEAQ  0(SP), DI
	MOVQ  136(SP), SI

table:
	CMPQ  R8, ow+64(FP)
	JGE   tabled
	CMPQ  R9, $16
	JGE   tabled
	LEAQ  32(R9), CX
	MOVQ  SI, AX
	SHLQ  CX, AX
	SHRQ  $32, AX              // taps at lanes sh…sh+k−1, clipped to 0…15
	MOVW  AX, (DI)
	ADDQ  $2, DI
	INCQ  R8
	ADDQ  s+48(FP), R9
	JMP   table

tabled:
	LEAQ  0(SP), AX
	SUBQ  AX, DI
	MOVQ  DI, 80(SP)
	MOVQ  plane+0(FP), R12
	MOVQ  64(SP), AX
	LEAQ  (R12)(AX*4), R12     // plane row y, channel 0, column c0
	MOVQ  $0, 152(SP)          // y − (the starting ky) = q·s + r
	MOVQ  $0, 160(SP)
	MOVQ  $0, 168(SP)          // y

yloop:
	MOVQ    168(SP), AX
	CMPQ    AX, ph+24(FP)
	JGE     nextchunk
	MOVQ    k+40(FP), CX
	DECQ    CX
	CMPQ    CX, AX
	CMOVQGT AX, CX
	MOVQ    CX, 176(SP)        // ky starts at min(k−1, y)
	MOVQ    R12, R14
	MOVQ    col+8(FP), R15
	ADDQ    72(SP), R15
	MOVQ    inCh+16(FP), R8

icloop:
	MOVQ      104(SP), R10     // the pair's second channel, in the planes
	MOVQ      112(SP), SI      // and in col
	CMPQ      R8, $2
	JGE       icpair
	XORL      R10, R10         // an odd channel out pairs with itself
	XORL      SI, SI

icpair:
	VMOVUPS.Z (R14), K2, Z0
	VMOVUPS.Z (R14)(R10*1), K2, Z3
	MOVQ      176(SP), CX      // ky, descending
	MOVQ      152(SP), R9      // oy = (y − ky)/s when r is 0, ascending
	MOVQ      160(SP), R13     // r

kyloop:
	TESTQ R13, R13
	JNZ   kynext
	CMPQ  R9, oh+56(FP)
	JGE   rowdone              // every later ky has a larger oy
	MOVQ  R9, BX
	IMULQ 96(SP), BX
	MOVQ  CX, AX
	IMULQ 120(SP), AX
	ADDQ  AX, BX
	ADDQ  R15, BX              // col at (oy, first window, ic, ky)
	LEAQ  0(SP), AX
	MOVQ  AX, DX
	ADDQ  80(SP), DX

addwins:
	KMOVW     (AX), K1
	VMOVUPS.Z (BX), K1, Z1
	VMOVUPS.Z (BX)(SI*1), K1, Z4
	VADDPS    Z1, Z0, K1, Z0
	VADDPS    Z4, Z3, K1, Z3
	ADDQ      R11, BX
	ADDQ      $2, AX
	CMPQ      AX, DX
	JLT       addwins

kynext:
	INCQ R13
	CMPQ R13, s+48(FP)
	JLT  kystep
	XORQ R13, R13
	INCQ R9

kystep:
	DECQ CX
	JGE  kyloop

rowdone:
	VMOVUPS Z0, K2, (R14)
	VMOVUPS Z3, K2, (R14)(R10*1)
	ADDQ    104(SP), R14
	ADDQ    112(SP), R15
	DECQ    R8
	JZ      ydone
	ADDQ    104(SP), R14
	ADDQ    112(SP), R15
	DECQ    R8
	JNZ     icloop

ydone:
	MOVQ 168(SP), AX
	INCQ AX
	MOVQ AX, 168(SP)
	ADDQ 128(SP), R12
	CMPQ AX, k+40(FP)
	JLT  yloop                 // y − min(k−1, y) stays 0 up to y = k−1
	MOVQ 160(SP), AX
	INCQ AX
	CMPQ AX, s+48(FP)
	JLT  ystep
	XORQ AX, AX
	INCQ 152(SP)

ystep:
	MOVQ AX, 160(SP)
	JMP  yloop

nextchunk:
	ADDQ $16, 64(SP)
	JMP  chunk

done:
	VZEROUPPER
	RET

// func reluMaskAsm512(dst, src, pre *float32, n int)
//
// dst[i] = src[i] where pre[i] > 0 or is NaN (VCMPPS NLE_UQ against +0),
// +0 elsewhere (a zero-masked load). dst may be src.
TEXT ·reluMaskAsm512(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   pre+16(FP), DX
	MOVQ   n+24(FP), CX
	VPXORD Z31, Z31, Z31

mask16:
	CMPQ      CX, $16
	JLT       masktail
	VMOVUPS   (DX), Z1
	VCMPPS    $0x16, Z31, Z1, K1
	VMOVUPS.Z (SI), K1, Z2
	VMOVUPS   Z2, (DI)
	ADDQ      $64, DI
	ADDQ      $64, SI
	ADDQ      $64, DX
	SUBQ      $16, CX
	JMP       mask16

masktail:
	TESTQ     CX, CX
	JZ        maskdone
	MOVL      $1, AX
	SHLL      CX, AX
	DECL      AX
	KMOVW     AX, K2
	VMOVUPS.Z (DX), K2, Z1     // lanes past n read as +0, which selects nothing
	VCMPPS    $0x16, Z31, Z1, K1
	VMOVUPS.Z (SI), K1, Z2
	VMOVUPS   Z2, K2, (DI)

maskdone:
	VZEROUPPER
	RET

// func addChannelBiasReluAsm512(act, pre, bias *float32, ch, n int)
//
// For each channel c: pre[c·n+i] += bias[c] (VADDPS with the
// pre-activation as the first source), and, when act is not nil,
// act[c·n+i] = the sum where it compares > 0 (VCMPPS GT_OQ), +0
// elsewhere (a zero-masked move).
TEXT ·addChannelBiasReluAsm512(SB), NOSPLIT, $0-40
	MOVQ   act+0(FP), DI
	MOVQ   pre+8(FP), SI
	MOVQ   bias+16(FP), DX
	MOVQ   ch+24(FP), R8
	MOVQ   n+32(FP), R9
	VPXORD Z31, Z31, Z31
	MOVQ   R9, CX
	ANDQ   $15, CX
	MOVL   $1, AX
	SHLL   CX, AX
	DECL   AX
	KMOVW  AX, K2              // the n%16 tail

channel:
	VBROADCASTSS (DX), Z3
	MOVQ         R9, CX

bias16:
	CMPQ    CX, $16
	JLT     biastail
	VMOVUPS (SI), Z1
	VADDPS  Z3, Z1, Z1
	VMOVUPS Z1, (SI)
	ADDQ    $64, SI
	TESTQ   DI, DI
	JZ      bias16next
	VCMPPS  $0x1e, Z31, Z1, K1
	VMOVUPS.Z Z1, K1, Z2
	VMOVUPS Z2, (DI)
	ADDQ    $64, DI

bias16next:
	SUBQ $16, CX
	JMP  bias16

biastail:
	TESTQ     CX, CX
	JZ        channeldone
	VMOVUPS.Z (SI), K2, Z1
	VADDPS    Z3, Z1, Z1
	VMOVUPS   Z1, K2, (SI)
	LEAQ      (SI)(CX*4), SI
	TESTQ     DI, DI
	JZ        channeldone
	VCMPPS    $0x1e, Z31, Z1, K1
	VMOVUPS.Z Z1, K1, Z2
	VMOVUPS   Z2, K2, (DI)
	LEAQ      (DI)(CX*4), DI

channeldone:
	ADDQ $4, DX
	DECQ R8
	JNZ  channel
	VZEROUPPER
	RET

// func copyPlanesAsm512(dst, src *float32, planes, rows, n, dstRow, srcRow, dstPlane, srcPlane int)
//
// Copies planes·rows rows of n ≥ 1 floats, row r of plane p from
// src[p·srcPlane + r·srcRow:] to dst[p·dstPlane + r·dstRow:]: 16 floats
// per ZMM move, the n%16 tail under a mask.
TEXT ·copyPlanesAsm512(SB), NOSPLIT, $0-72
	MOVQ  dst+0(FP), DI
	MOVQ  src+8(FP), SI
	MOVQ  n+32(FP), R9
	MOVQ  dstRow+40(FP), R10
	SHLQ  $2, R10
	MOVQ  srcRow+48(FP), R11
	SHLQ  $2, R11
	MOVQ  R9, CX
	ANDQ  $15, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K2               // the n%16 tail
	ANDQ  $-16, R9
	SHLQ  $2, R9               // whole ZMM moves per row, bytes
	MOVQ  planes+16(FP), R12

copyplane:
	MOVQ DI, R13
	MOVQ SI, R14
	MOVQ rows+24(FP), R8

copyrow:
	XORQ BX, BX

copy16:
	CMPQ    BX, R9
	JGE     copytail
	VMOVUPS (R14)(BX*1), Z0
	VMOVUPS Z0, (R13)(BX*1)
	ADDQ    $64, BX
	JMP     copy16

copytail:
	VMOVUPS.Z (R14)(BX*1), K2, Z0
	VMOVUPS   Z0, K2, (R13)(BX*1)
	ADDQ      R10, R13
	ADDQ      R11, R14
	DECQ      R8
	JNZ       copyrow
	MOVQ      dstPlane+56(FP), AX
	LEAQ      (DI)(AX*4), DI
	MOVQ      srcPlane+64(FP), AX
	LEAQ      (SI)(AX*4), SI
	DECQ      R12
	JNZ       copyplane
	VZEROUPPER
	RET

// func fillRowsAsm512(dst, vals *float32, rows, n int, scale float32)
//
// Sets each of rows rows of n ≥ 1 floats of dst, stored one after
// another, to vals[r]·scale (VMULSS with vals[r] as the first source, as
// Go's vals[r] * scale), broadcast: 16 floats per ZMM store, the n%16
// tail under a mask.
TEXT ·fillRowsAsm512(SB), NOSPLIT, $0-36
	MOVQ  dst+0(FP), DI
	MOVQ  vals+8(FP), SI
	MOVQ  rows+16(FP), R8
	MOVQ  n+24(FP), R9
	VMOVSS scale+32(FP), X1
	MOVQ  R9, CX
	ANDQ  $15, CX
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K2               // the n%16 tail
	SHLQ  $2, CX               // tail, bytes
	ANDQ  $-16, R9
	SHLQ  $2, R9               // whole ZMM stores per row, bytes

fillrow:
	VMOVSS       (SI), X0
	VMULSS       X1, X0, X0
	VBROADCASTSS X0, Z0
	LEAQ         (DI)(R9*1), DX

fill16:
	CMPQ    DI, DX
	JGE     filltail
	VMOVUPS Z0, (DI)
	ADDQ    $64, DI
	JMP     fill16

filltail:
	VMOVUPS Z0, K2, (DI)
	ADDQ    CX, DI
	ADDQ    $4, SI
	DECQ    R8
	JNZ     fillrow
	VZEROUPPER
	RET
