package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// convSpecials are the patterns the plumbing's copies, selects and sums
// must carry bit for bit: ±0, two NaN payloads (the x86 default NaN and
// a positive one), ±Inf and subnormals of both signs.
var convSpecials = []uint32{
	0x00000000, 0x80000000,
	0xFFC00000, 0x7FC12345,
	0x7F800000, 0xFF800000,
	0x00000001, 0x807FFFFF,
}

// convValue maps two input bytes (cycled, mixed with the index) to a
// value: one in four a convSpecials pattern, the rest ±(1+f)·2^e for e
// in [−4, 3].
func convValue(vals []byte, i int) float32 {
	u := uint16(i * 0x9E37)
	if len(vals) > 0 {
		u ^= uint16(vals[(2*i)%len(vals)]) | uint16(vals[(2*i+1)%len(vals)])<<8
	}
	if u&3 == 0 {
		return math.Float32frombits(convSpecials[int(u>>2)%len(convSpecials)])
	}
	return math.Float32frombits(uint32(u>>15)<<31 | uint32(123+u>>12&7)<<23 | uint32(u&0xFFF)<<11)
}

func convValues(vals []byte, salt, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = convValue(vals, salt*7919+i)
	}
	return out
}

// defaultNaNs replaces every NaN in x with the x86 default NaN. col2im's
// inputs carry it only: which operand of a commutative add the compiler
// names first in the Go body differs from tap to tap, and with one NaN
// pattern in play it cannot show in the bits.
func defaultNaNs(x []float32) []float32 {
	for i, v := range x {
		if v != v {
			x[i] = math.Float32frombits(0xFFC00000)
		}
	}
	return x
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s %s: [%d] = %#08x, Go body %#08x", CurrentSIMDLevel(), what, i, g, w)
		}
	}
}

// checkConvRows runs Im2col, Col2im and CopyInterior (both ways) for one
// geometry against the Go bodies: every tap written (the destination
// starts as NaN), every plane element's sum (the planes start dirty, not
// zeroed) bit for bit, and nothing written past a destination (the 16
// slots after it).
func checkConvRows(t *testing.T, vals []byte, inCh, h, w, k, s int) {
	t.Helper()
	pad := k / 2
	ph, pw := h+2*pad, w+2*pad
	oh, ow := (h+s-1)/s, (w+s-1)/s
	ck, cn := inCh*k*k, oh*ow
	name := fmt.Sprintf("inCh %d %dx%d k %d s %d", inCh, h, w, k, s)
	plane := convValues(vals, 1, inCh*ph*pw)
	want, got := make([]float32, cn*ck+16), make([]float32, cn*ck+16)
	for i := range got {
		got[i] = float32(math.NaN())
		want[i] = got[i]
	}
	im2col(want, plane, inCh, ph, pw, k, s, oh, ow)
	Im2col(got[:cn*ck], plane, inCh, ph, pw, k, s, oh, ow)
	sameBits(t, name+" im2col", got, want)

	col := defaultNaNs(convValues(vals, 2, cn*ck))
	wantP, gotP := defaultNaNs(convValues(vals, 3, inCh*ph*pw+16)), defaultNaNs(convValues(vals, 3, inCh*ph*pw+16))
	col2im(wantP, col, inCh, ph, pw, k, s, oh, ow)
	Col2im(gotP[:inCh*ph*pw], col, inCh, ph, pw, k, s, oh, ow)
	sameBits(t, name+" col2im", gotP, wantP)

	// The interior copies in and out of the planes.
	plain := convValues(vals, 4, inCh*h*w)
	copyInterior(wantP, plain, inCh, h, w, pad, true)
	CopyInterior(gotP[:inCh*ph*pw], plain, inCh, h, w, pad, true)
	sameBits(t, name+" CopyInterior in", gotP, wantP)
	back := make([]float32, inCh*h*w+16)
	CopyInterior(gotP[:inCh*ph*pw], back[:inCh*h*w], inCh, h, w, pad, false)
	sameBits(t, name+" CopyInterior out", back, append(plain, make([]float32, 16)...))
}

// checkEpilogueBodies runs ReluMaskInto, AddChannelBiasRelu (with and
// without act) and FillRows over ch channels of n values against their
// Go bodies.
func checkEpilogueBodies(t *testing.T, vals []byte, ch, n int) {
	t.Helper()
	name := fmt.Sprintf("%d×%d", ch, n)
	m := ch * n
	src, pre := convValues(vals, 4, m), convValues(vals, 5, m)
	want, got := make([]float32, m), convValues(vals, 6, m)
	reluMask(want, src, pre)
	ReluMaskInto(FromSlice(got, m), FromSlice(src, m), FromSlice(pre, m))
	sameBits(t, name+" ReluMaskInto", got, want)

	bias := convValues(vals, 7, ch)
	wantPre, gotPre := convValues(vals, 5, m), convValues(vals, 5, m)
	wantAct, gotAct := make([]float32, m), convValues(vals, 8, m)
	addChannelBiasRelu(wantAct, wantPre, bias, n)
	AddChannelBiasRelu(gotAct, gotPre, bias, n)
	sameBits(t, name+" AddChannelBiasRelu pre", gotPre, wantPre)
	sameBits(t, name+" AddChannelBiasRelu act", gotAct, wantAct)
	wantPre, gotPre = convValues(vals, 5, m), convValues(vals, 5, m)
	addChannelBiasRelu(nil, wantPre, bias, n)
	AddChannelBiasRelu(nil, gotPre, bias, n)
	sameBits(t, name+" AddChannelBiasRelu bias only", gotPre, wantPre)

	// The broadcast, by a finite scale as the pooling backward's 1/(h·w).
	scale := float32(1) / float32(1+len(vals)%64)
	rowVals := convValues(vals, 9, ch)
	wantF, gotF := make([]float32, m+16), make([]float32, m+16)
	fillRows(wantF, rowVals, n, scale)
	FillRows(gotF, rowVals, n, scale)
	sameBits(t, name+" FillRows", gotF, wantF)
}

// TestConvPlumbingMatchesGoBodies holds every host tier's conv plumbing
// to the Go bodies: kernels 1–5 and 7, both strides, planes from 1×1 to
// wider than one 16-lane chunk, and every epilogue length 0–70.
func TestConvPlumbingMatchesGoBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	vals := make([]byte, 4096)
	rng.Read(vals)
	eachTier(t, func(t *testing.T) {
		for _, k := range []int{1, 2, 3, 4, 5, 7} {
			for s := 1; s <= 2; s++ {
				for _, inCh := range []int{1, 3, 12} {
					for _, hw := range [][2]int{{1, 1}, {1, 7}, {2, 3}, {5, 5}, {8, 8}, {9, 4}, {12, 12}, {13, 14}, {15, 17}, {3, 30}, {20, 45}} {
						checkConvRows(t, vals, inCh, hw[0], hw[1], k, s)
					}
				}
			}
		}
		for n := 0; n <= 70; n++ {
			for _, ch := range []int{1, 3} {
				checkEpilogueBodies(t, vals, ch, n)
			}
		}
	})
}

// FuzzConvPlumbingBits draws a geometry and values and holds the host
// tier's im2col, col2im, plane-interior copies, pooling broadcast and
// ReLU epilogues to the Go bodies, bit for bit. shape packs inCh (1–16), k (1, 3, 5), the stride (1, 2), h and w
// (1–24 each), the epilogue's channels (1–4) and length (0–70); vals
// supplies two bytes per element (cycled), mapped by convValue so that
// ±0, both NaN payloads (col2im: the default NaN only), ±Inf and
// subnormals are common.
func FuzzConvPlumbingBits(f *testing.F) {
	f.Add(uint64(0), []byte(nil))
	f.Add(uint64(2+16*(1+3*(1+2*(7+24*7)))), []byte{0x00, 0xc0, 0x7f, 0x80})
	f.Add(uint64(11+16*(2+3*(0+2*(0+24*0)))), []byte{0x10, 0x20, 0x30})
	f.Add(uint64(0+16*(0+3*(1+2*(18+24*20)))), []byte("bits"))
	f.Fuzz(func(t *testing.T, shape uint64, vals []byte) {
		inCh := 1 + int(shape%16)
		shape /= 16
		k := 1 + 2*int(shape%3)
		shape /= 3
		s := 1 + int(shape%2)
		shape /= 2
		h := 1 + int(shape%24)
		shape /= 24
		w := 1 + int(shape%24)
		shape /= 24
		ch := 1 + int(shape%4)
		shape /= 4
		n := int(shape % 71)
		checkConvRows(t, vals, inCh, h, w, k, s)
		checkEpilogueBodies(t, vals, ch, n)
	})
}
