package tensor

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"testing"
	"time"
)

// The avx512 tier's row kernels (rows_amd64.s) against the Go bodies the
// generic tier runs, bit for bit: AddScaledInto out of place and with
// dst as either operand, AddBiasRows, AddBiasReluRows, SumRowsAcc and
// SumRowsScaled, over attnValue's operands (NaNs compared as NaNs, as
// attention_test.go says why). Each destination carries 16 guard floats
// past its end, which no kernel may write. The softmax backward's 8×8
// block is held to softmaxBackwardRows in attnBlockBoth.

// againstGoBody runs fn at the avx512 tier and at the generic tier, and
// fails on the first bit of its results that differs.
func againstGoBody(t *testing.T, name string, fn func() []Float) {
	t.Helper()
	defer SetSIMDLevel(SetSIMDLevel(SIMDGeneric))
	want := fn()
	SetSIMDLevel(SIMDAVX512)
	sameAttnBits(t, name, fn(), want)
}

// guarded returns a copy of v followed by 16 guard floats, and the
// tensor of shape over its first len(v) floats.
func guarded(v []Float, shape ...int) ([]Float, *Tensor) {
	buf := append(slices.Clone(v), attnFill(rand.New(rand.NewSource(int64(len(v)))), 16, 0)...)
	return buf, FromSlice(buf[:len(v)], shape...)
}

// checkRowKernels holds every row kernel to its Go body on one draw: n
// floats for AddScaledInto, rows×cols for the rest.
func checkRowKernels(t *testing.T, seed int64, rows, cols, n int, special uint8) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	name := fmt.Sprintf("seed %d %d×%d n=%d special %d", seed, rows, cols, n, special)

	a, b := attnFill(rng, n, special), attnFill(rng, n, special)
	alpha := float64(attnValue(rng, special))
	if rng.Intn(2) == 0 {
		alpha = -0.05 // an SGD step: AddScaledInto(p, p, g, -LR)
	}
	for alias, form := range []string{"out of place", "dst = a", "dst = b"} {
		againstGoBody(t, fmt.Sprintf("%s AddScaledInto %s", name, form), func() []Float {
			bufA, x := guarded(a, n)
			bufB, y := guarded(b, n)
			bufD, dst := guarded(attnFill(rand.New(rand.NewSource(seed)), n, special), n)
			switch alias {
			case 1:
				bufD, dst = bufA, x
			case 2:
				bufD, dst = bufB, y
			}
			AddScaledInto(dst, x, y, alpha)
			return slices.Concat(bufD, bufA, bufB)
		})
	}

	pre, bias := attnFill(rng, rows*cols, special), attnFill(rng, cols, special)
	act := attnFill(rng, rows*cols, special)
	againstGoBody(t, name+" AddBiasRows", func() []Float {
		buf, p := guarded(pre, rows, cols)
		AddBiasRows(p, FromSlice(bias, cols))
		return buf
	})
	againstGoBody(t, name+" AddBiasReluRows", func() []Float {
		bufP, p := guarded(pre, rows, cols)
		bufA, q := guarded(act, rows, cols)
		AddBiasReluRows(q, p, FromSlice(bias, cols))
		return append(bufP, bufA...)
	})

	sum := attnFill(rng, cols, special)
	againstGoBody(t, name+" SumRowsAcc", func() []Float {
		buf, d := guarded(sum, cols)
		SumRowsAcc(d, FromSlice(pre, rows, cols))
		return buf
	})
	scale := Float(1 / float64(1+rng.Intn(16)))
	againstGoBody(t, name+" SumRowsScaled", func() []Float {
		buf, _ := guarded(sum, cols)
		SumRowsScaled(buf[:cols], pre, cols, scale)
		return buf
	})
}

// TestRowKernelsMatchGoBodies sweeps rows 0–20 by cols 1–40 (every
// cols%16 mask, and the widths the bias kernel folds to 16) with
// AddScaledInto at rows+cols floats, over ordinary, special-laden and
// signed-zero operands.
func TestRowKernelsMatchGoBodies(t *testing.T) {
	needAVX512(t)
	seed := int64(0)
	for rows := 0; rows <= 20; rows++ {
		for cols := 1; cols <= 40; cols++ {
			for _, special := range []uint8{0, 40, 255} {
				seed++
				checkRowKernels(t, seed, rows, cols, rows+cols, special)
			}
		}
	}
}

// FuzzRowKernelsBits draws rows 0–20, cols 1–40, AddScaledInto's length
// 0–50 and the share of special operands.
func FuzzRowKernelsBits(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(7), uint8(50), uint8(0))
	f.Add(int64(2), uint8(8), uint8(31), uint8(17), uint8(64))
	f.Add(int64(3), uint8(20), uint8(15), uint8(32), uint8(255))
	f.Add(int64(4), uint8(0), uint8(3), uint8(0), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, rows, cols, n, special uint8) {
		needAVX512(t)
		checkRowKernels(t, seed, int(rows)%21, 1+int(cols)%40, int(n)%51, special)
	})
}

// TestRowKernelSpeed is the row kernels' speed gate; it runs only with
// FEDTRANS_KERNEL_SPEED=1, on a host with the avx512 tier. At the
// attention step's shapes (80 token rows of d = 8 and of ff = 32, one
// item's 8×8 tokens and softmax block) it times each kernel's dispatch at the avx512 tier,
// the same call at the generic tier (the Go body) and a copy of the
// floats the call reads, alternating the three, 7 runs each, and fails
// when the Go body's median is not floor times the kernel's. Each floor
// is about half the lowest ratio of ten runs on a 2 vCPU AVX-512 host
// (PERF.md, kernel ledger); a kernel routed to its Go body reads ×1.
func TestRowKernelSpeed(t *testing.T) {
	if os.Getenv("FEDTRANS_KERNEL_SPEED") != "1" {
		t.Skip("set FEDTRANS_KERNEL_SPEED=1 to time the row kernels")
	}
	needAVX512(t)
	defer SetSIMDLevel(SetSIMDLevel(SIMDAVX512))
	rng := rand.New(rand.NewSource(1))
	type gate struct {
		name   string
		floats int
		floor  float64
		run    func()
	}
	var gates []gate
	for _, cols := range []int{8, 32} {
		x, y, z := randTensor(rng, 80, cols), randTensor(rng, 80, cols), New(80, cols)
		bias, sums := randTensor(rng, cols), New(cols)
		shape := fmt.Sprintf("80×%d", cols)
		gates = append(gates,
			gate{"AddScaledInto " + shape, 2 * 80 * cols, 5, func() { AddScaledInto(z, x, y, 1) }},
			gate{"AddBiasRows " + shape, 80 * cols, 4, func() { AddBiasRows(x, bias) }},
			gate{"AddBiasReluRows " + shape, 80 * cols, 4, func() { AddBiasReluRows(z, x, bias) }},
			gate{"SumRowsAcc " + shape, 80 * cols, 2, func() { SumRowsAcc(sums, y) }},
		)
	}
	g0, a, mean := randTensor(rng, 8, 8).Data, randTensor(rng, 8, 8).Data, make([]Float, 8)
	ds := make([]Float, 64)
	gates = append(gates,
		gate{"softmax backward 8×8", 128, 2, func() {
			copy(ds, g0)
			softmaxBackBlock(ds, a, 8, 0.5)
		}},
		gate{"SumRowsScaled 8×8", 64, 1.5, func() { SumRowsScaled(mean, a, 8, 0.125) }},
	)

	const calls = 2000
	perCall := func(level SIMDLevel, fn func()) float64 {
		SetSIMDLevel(level)
		start := time.Now()
		for range calls {
			fn()
		}
		return float64(time.Since(start).Nanoseconds()) / calls
	}
	median := func(v []float64) float64 {
		s := slices.Clone(v)
		slices.Sort(s)
		return s[len(s)/2]
	}
	for _, g := range gates {
		src, dst := make([]Float, g.floats), make([]Float, g.floats)
		var kern, body, cp []float64
		for range 7 {
			kern = append(kern, perCall(SIMDAVX512, g.run))
			body = append(body, perCall(SIMDGeneric, g.run))
			cp = append(cp, perCall(SIMDAVX512, func() { copy(dst, src) }))
		}
		k, b, c := median(kern), median(body), median(cp)
		t.Logf("%-24s kernel %7.1f ns  Go body %7.1f ns (×%.2f, floor ×%.1f)  copy %6.1f ns (kernel ×%.1f)", g.name, k, b, b/k, g.floor, c, k/c)
		if b/k < g.floor {
			t.Errorf("%s: the Go body takes ×%.2f the kernel's time, floor ×%.1f", g.name, b/k, g.floor)
		}
	}
}
