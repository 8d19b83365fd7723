package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedtrans/internal/tensor"
)

// im2colT and col2imT are the bounds-tested unroll and scatter that
// im2col/col2im on the zero-bordered plane replaced, kept verbatim as
// the oracle: the padded forms must reproduce them bit for bit.
func (c *Conv2DCell) im2colT(dst, src []tensor.Float, inCh, h, w, oh, ow int) {
	k, s := c.K(), c.Stride
	pad := k / 2
	ck := inCh * k * k
	j := 0
	for oy := 0; oy < oh; oy++ {
		iy0 := oy*s - pad
		for ox := 0; ox < ow; ox++ {
			ix0 := ox*s - pad
			kx0, kx1 := 0, k
			if ix0 < 0 {
				kx0 = -ix0
			}
			if w-ix0 < k {
				kx1 = w - ix0
				if kx1 < kx0 {
					kx1 = kx0
				}
			}
			drow := dst[j*ck : (j+1)*ck]
			j++
			interior := k == 3 && kx0 == 0 && kx1 == 3 && iy0 >= 0 && iy0+3 <= h
			for ic := 0; ic < inCh; ic++ {
				plane := src[ic*h*w : (ic+1)*h*w]
				base := ic * k * k
				if interior {
					d9 := drow[base : base+9]
					s0 := plane[iy0*w+ix0:]
					s1 := plane[(iy0+1)*w+ix0:]
					s2 := plane[(iy0+2)*w+ix0:]
					d9[0] = s0[0]
					d9[1] = s0[1]
					d9[2] = s0[2]
					d9[3] = s1[0]
					d9[4] = s1[1]
					d9[5] = s1[2]
					d9[6] = s2[0]
					d9[7] = s2[1]
					d9[8] = s2[2]
					continue
				}
				for ky := 0; ky < k; ky++ {
					iy := iy0 + ky
					seg := drow[base+ky*k : base+(ky+1)*k]
					if iy < 0 || iy >= h {
						for i := range seg {
							seg[i] = 0
						}
						continue
					}
					for i := 0; i < kx0; i++ {
						seg[i] = 0
					}
					copy(seg[kx0:kx1], plane[iy*w+ix0+kx0:iy*w+ix0+kx1])
					for i := kx1; i < k; i++ {
						seg[i] = 0
					}
				}
			}
		}
	}
}

func (c *Conv2DCell) col2imT(dst, src []tensor.Float, inCh, h, w, oh, ow int) {
	k, s := c.K(), c.Stride
	pad := k / 2
	ck := inCh * k * k
	j := 0
	for oy := 0; oy < oh; oy++ {
		iy0 := oy*s - pad
		for ox := 0; ox < ow; ox++ {
			ix0 := ox*s - pad
			kx0, kx1 := 0, k
			if ix0 < 0 {
				kx0 = -ix0
			}
			if w-ix0 < k {
				kx1 = w - ix0
				if kx1 < kx0 {
					kx1 = kx0
				}
			}
			srow := src[j*ck : (j+1)*ck]
			j++
			interior := k == 3 && kx0 == 0 && kx1 == 3 && iy0 >= 0 && iy0+3 <= h
			for ic := 0; ic < inCh; ic++ {
				plane := dst[ic*h*w : (ic+1)*h*w]
				base := ic * k * k
				if interior {
					// Fast path for the dominant case: a fully
					// in-bounds 3x3 window.
					s9 := srow[base : base+9]
					d0 := plane[iy0*w+ix0:]
					d1 := plane[(iy0+1)*w+ix0:]
					d2 := plane[(iy0+2)*w+ix0:]
					d0[0] += s9[0]
					d0[1] += s9[1]
					d0[2] += s9[2]
					d1[0] += s9[3]
					d1[1] += s9[4]
					d1[2] += s9[5]
					d2[0] += s9[6]
					d2[1] += s9[7]
					d2[2] += s9[8]
					continue
				}
				for ky := 0; ky < k; ky++ {
					iy := iy0 + ky
					if iy < 0 || iy >= h {
						continue
					}
					seg := srow[base+ky*k+kx0 : base+ky*k+kx1]
					drow := plane[iy*w+ix0+kx0:]
					for i, v := range seg {
						drow[i] += v
					}
				}
			}
		}
	}
}

// randSigned fills a slice with normal draws, every seventh one a
// negative zero so the sign of a sum of zeros is exercised too.
func randSigned(rng *rand.Rand, n int) []tensor.Float {
	out := make([]tensor.Float, n)
	for i := range out {
		out[i] = tensor.Float(rng.NormFloat64())
		if i%7 == 3 {
			out[i] = tensor.Float(math.Copysign(0, -1))
		}
	}
	return out
}

func wantSameBits(t *testing.T, what string, got, want []tensor.Float) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s[%d] = %#08x, oracle %#08x", what, i, g, w)
		}
	}
}

// eachTier runs fn at every kernel tier the host supports, named by it.
func eachTier(t *testing.T, fn func(t *testing.T)) {
	orig := tensor.CurrentSIMDLevel()
	defer tensor.SetSIMDLevel(orig)
	for level := tensor.SIMDGeneric; level <= tensor.SIMDSupported(); level++ {
		tensor.SetSIMDLevel(level)
		t.Run(level.String(), fn)
	}
}

// TestPaddedIm2colBitIdenticalToBranchy sweeps kernel, stride, channel
// count and every spatial size 1…9 (square and rectangular, so planes
// smaller than the kernel and strides that skip the last column are in)
// through both directions, at every host tier.
func TestPaddedIm2colBitIdenticalToBranchy(t *testing.T) { eachTier(t, testPaddedIm2col) }

func testPaddedIm2col(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	nan := tensor.Float(math.NaN())
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, inCh := range []int{1, 3, 8} {
				c := &Conv2DCell{W: tensor.New(1, inCh, k, k), Stride: stride}
				for h := 1; h <= 9; h++ {
					for w := 1; w <= 9; w++ {
						name := fmt.Sprintf("k%d s%d c%d %dx%d", k, stride, inCh, h, w)
						oh, ow := c.outSize(h), c.outSize(w)
						pad, ck, cn := k/2, inCh*k*k, oh*ow
						ph, pw := h+2*pad, w+2*pad

						x := randSigned(rng, inCh*h*w)
						want := make([]tensor.Float, cn*ck)
						c.im2colT(want, x, inCh, h, w, oh, ow)
						plane := make([]tensor.Float, inCh*ph*pw)
						tensor.CopyInterior(plane, x, inCh, h, w, pad, true)
						got := make([]tensor.Float, cn*ck)
						for i := range got {
							got[i] = nan // every tap must be written
						}
						tensor.Im2col(got, plane, inCh, ph, pw, k, stride, oh, ow)
						wantSameBits(t, name+" im2col", got, want)

						dcol := randSigned(rng, cn*ck)
						wantG := make([]tensor.Float, inCh*h*w)
						c.col2imT(wantG, dcol, inCh, h, w, oh, ow)
						for i := range plane {
							plane[i] = 0
						}
						tensor.Col2im(plane, dcol, inCh, ph, pw, k, stride, oh, ow)
						gotG := make([]tensor.Float, inCh*h*w)
						for i := range gotG {
							gotG[i] = nan
						}
						tensor.CopyInterior(plane, gotG, inCh, h, w, pad, false)
						wantSameBits(t, name+" col2im", gotG, wantG)
					}
				}
			}
		}
	}
}

// poison fills every workspace tensor of a cell with NaN over its whole
// capacity, as a previous holder of the pooled memory may have left it.
func poison(c *Conv2DCell) {
	nan := tensor.Float(math.NaN())
	for _, t := range []*tensor.Tensor{c.col, c.out, c.act, c.gbuf, c.dcol, c.gin, c.plane} {
		if t == nil {
			continue
		}
		d := t.Data[:cap(t.Data)]
		for i := range d {
			d[i] = nan
		}
	}
}

// TestPaddedPlaneSurvivesDirtyPool runs a cell whose scratch comes back
// full of NaN — from the pool after a larger workspace was released,
// and from its own slots when the geometry shrinks — against the
// oracle, at every host tier: the border is zeroed on every use, not
// once.
func TestPaddedPlaneSurvivesDirtyPool(t *testing.T) { eachTier(t, testDirtyPool) }

func testDirtyPool(t *testing.T) {
	rng := rand.New(rand.NewSource(2020))
	// Several dirty buffers per size class, so the small cell below draws
	// poisoned memory whichever of its slots asks first.
	for i := 0; i < 4; i++ {
		big := NewConv2DCell(3, 4, 3, 1, true, rng)
		x := tensor.New(4, 3, 9, 9)
		x.RandNormal(rng, 1)
		g := big.Forward(x).Clone()
		big.Backward(g)
		poison(big)
		big.ReleaseWorkspace()
	}

	c := NewConv2DCell(3, 4, 3, 2, true, rng)
	check := func(batch, h, w int) {
		t.Helper()
		x := tensor.New(batch, 3, h, w)
		x.Data = randSigned(rng, x.Len())
		out := c.Forward(x)
		oh, ow := out.Shape[2], out.Shape[3]
		ck, cn := 3*9, oh*ow
		want := make([]tensor.Float, cn*ck)
		for b := 0; b < batch; b++ {
			c.im2colT(want, x.Data[b*3*h*w:(b+1)*3*h*w], 3, h, w, oh, ow)
			wantSameBits(t, fmt.Sprintf("col item %d", b), c.col.Data[b*cn*ck:(b+1)*cn*ck], want)
		}
		g := tensor.New(out.Shape...)
		g.RandNormal(rng, 1)
		gin := c.Backward(g)
		for i, v := range gin.Data {
			if v != v {
				t.Fatalf("input gradient[%d] is NaN: dirty scratch leaked", i)
			}
		}
		// dcol still holds the last item's column gradient.
		wantG := make([]tensor.Float, 3*h*w)
		c.col2imT(wantG, c.dcol.Data, 3, h, w, oh, ow)
		wantSameBits(t, "input gradient of the last item", gin.Data[(batch-1)*3*h*w:], wantG)
	}
	check(3, 8, 8) // scratch from the dirtied pool
	poison(c)
	check(2, 5, 7) // smaller geometry inside the cell's own dirty slots
	poison(c)
	check(3, 8, 8)
}

// BenchmarkIm2col times one item's im2col and col2im at the workload's
// two conv shapes (3×3, stride 1, 8×8 planes, 3 and 12 input channels)
// beside a contiguous copy of the same number of floats — the host's
// memory-roof reference — and reports each as ns per column-matrix
// float.
func BenchmarkIm2col(b *testing.B) {
	const k, s, h, w = 3, 1, 8, 8
	for _, inCh := range []int{3, 12} {
		pad := k / 2
		ph, pw := h+2*pad, w+2*pad
		ck, cn := inCh*k*k, h*w
		rng := rand.New(rand.NewSource(int64(inCh)))
		plane, col := randSigned(rng, inCh*ph*pw), randSigned(rng, cn*ck)
		floats := float64(cn * ck)
		run := func(name string, fn func()) {
			b.Run(fmt.Sprintf("%s/inCh%d", name, inCh), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fn()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/floats, "ns/float")
			})
		}
		dst := make([]tensor.Float, cn*ck)
		run("im2col", func() { tensor.Im2col(dst, plane, inCh, ph, pw, k, s, h, w) })
		run("col2im", func() { tensor.Col2im(plane, col, inCh, ph, pw, k, s, h, w) })
		run("copy", func() { copy(dst, col) })
	}
}
