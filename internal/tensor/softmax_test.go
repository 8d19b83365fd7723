package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The ZMM softmax kernel against the scalar row, bit for bit: every
// float32 it stores must be the one softmaxRow stores, and a row it
// declines must come out of the scalar fallback unchanged.

// softmaxBoth runs src through the scalar rows and, at the avx512 level,
// through softmaxRowsScaled (out of place and in place), and fails on
// the first stored bit that differs.
func softmaxBoth(t *testing.T, src []float32, rows, cols int, alpha float64) {
	t.Helper()
	want := make([]float32, len(src))
	for i := 0; i < rows; i++ {
		softmaxRow(want[i*cols:(i+1)*cols], src[i*cols:(i+1)*cols], alpha)
	}
	defer SetSIMDLevel(SetSIMDLevel(SIMDAVX512))
	got := make([]float32, len(src))
	softmaxRowsScaled(got, src, rows, cols, alpha)
	inPlace := append([]float32(nil), src...)
	softmaxRowsScaled(inPlace, inPlace, rows, cols, alpha)
	for i := range want {
		w := math.Float32bits(want[i])
		if g := math.Float32bits(got[i]); g != w {
			t.Fatalf("cols %d alpha %v: row %d col %d = %#x (%v), scalar %#x (%v); row %v",
				cols, alpha, i/cols, i%cols, g, got[i], w, want[i], src[i/cols*cols:(i/cols+1)*cols])
		}
		if g := math.Float32bits(inPlace[i]); g != w {
			t.Fatalf("cols %d alpha %v: in place, row %d col %d = %#x, scalar %#x", cols, alpha, i/cols, i%cols, g, w)
		}
	}
}

func needAVX512(t testing.TB) {
	if SIMDSupported() < SIMDAVX512 {
		t.Skip("host has no avx512 tier")
	}
}

// TestSoftmaxZMMMatchesScalar sweeps every masked tail (cols 1–40),
// several scales, rows whose scaled spread straddles the −700 fallback
// bound, and rows holding NaN, ±Inf and ±0; then every row count 1–17
// (groups of eight and the one-row rest) with one row the kernel must
// decline at each position in turn.
func TestSoftmaxZMMMatchesScalar(t *testing.T) {
	needAVX512(t)
	rng := rand.New(rand.NewSource(7))
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	for cols := 1; cols <= 40; cols++ {
		for _, alpha := range []float64{0.05, 1 / math.Sqrt(8), 1, 3.7, 250} {
			const rows = 9
			src := make([]float32, rows*cols)
			for i := range src {
				src[i] = float32(rng.NormFloat64() * 4)
			}
			// Row 1 spreads to −700/alpha around its max: the lanes land
			// on both sides of the bound, so some rows fall back.
			for j := 0; j < cols; j++ {
				src[cols+j] = float32(-700/alpha) * float32(0.98+0.04*rng.Float64())
			}
			src[cols] = 0
			// Rows 2–5: one special value each at a drawn column.
			for r, v := range []float32{nan, inf, -inf, float32(math.Copysign(0, -1))} {
				src[(2+r)*cols+rng.Intn(cols)] = v
			}
			// Row 6 is all signed zeros; row 7 is constant.
			for j := 0; j < cols; j++ {
				src[6*cols+j] = float32(math.Copysign(0, float64(j%2)-0.5))
				src[7*cols+j] = 3
			}
			softmaxBoth(t, src, rows, cols, alpha)
		}
	}
	for rows := 1; rows <= 17; rows++ {
		for _, cols := range []int{1, 3, 8, 9, 16, 21} {
			src := make([]float32, rows*cols)
			for i := range src {
				src[i] = float32(rng.NormFloat64() * 4)
			}
			softmaxBoth(t, src, rows, cols, 0.5)
			for bad := 0; bad < rows; bad++ {
				row := append([]float32(nil), src...)
				row[bad*cols+rng.Intn(cols)] = []float32{nan, inf, -inf, -1e6}[bad%4]
				softmaxBoth(t, row, rows, cols, 0.5)
			}
		}
	}
}

// TestSoftmaxZMMTakesOrdinaryRows keeps the comparison above from going
// vacuous: the kernel accepts ordinary rows, one at a time and in
// groups of eight, and stops at a row whose spread passes −700 without
// writing it, after writing the rows before it, in a group as alone.
func TestSoftmaxZMMTakesOrdinaryRows(t *testing.T) {
	needAVX512(t)
	src := []float32{0.5, -1, 2, 0, 1.25, -3, 7, 0.5, 1, 2, 3, 4, -700, 5, 6}
	dst := make([]float32, len(src))
	if n := softmaxRowsAsm512(&dst[0], &src[0], 1, 12, 1); n != 1 {
		t.Fatalf("kernel wrote %d of 1 ordinary rows", n)
	}
	if n := softmaxRowsAsm512(&dst[0], &src[0], 1, 15, 1); n != 0 || dst[12] != 0 {
		t.Fatalf("kernel wrote %d rows (dst[12] = %v) of a row spanning more than 700", n, dst[12])
	}
	const rows, cols = 19, 10
	rng := rand.New(rand.NewSource(3))
	for bad := -1; bad < rows; bad++ {
		grid := make([]float32, rows*cols)
		for i := range grid {
			grid[i] = float32(rng.NormFloat64())
		}
		want := rows
		if bad >= 0 {
			grid[bad*cols+bad%cols] = -1000
			want = bad
		}
		out := make([]float32, len(grid))
		if n := softmaxRowsAsm512(&out[0], &grid[0], rows, cols, 1); n != want {
			t.Fatalf("failing row %d: kernel wrote %d rows, want %d", bad, n, want)
		}
		for i := 0; i < rows; i++ {
			ref := make([]float32, cols)
			softmaxRow(ref, grid[i*cols:(i+1)*cols], 1)
			for j, v := range out[i*cols : (i+1)*cols] {
				if i < want && math.Float32bits(v) != math.Float32bits(ref[j]) {
					t.Fatalf("failing row %d: row %d col %d = %v, scalar %v", bad, i, j, v, ref[j])
				}
				if i >= want && v != 0 {
					t.Fatalf("failing row %d: row %d was written (col %d = %v)", bad, i, j, v)
				}
			}
		}
	}
}

// FuzzSoftmaxRows: arbitrary float32 bit patterns, widths and scales.
func FuzzSoftmaxRows(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64, 0, 0, 64, 64}, uint8(3), 1.0)
	f.Add([]byte{0, 0, 192, 127, 0, 0, 128, 255, 0, 0, 0, 128, 1, 2, 3, 4}, uint8(2), 0.35)
	f.Add(make([]byte, 4*37), uint8(37), 1e3)
	f.Fuzz(func(t *testing.T, raw []byte, width uint8, alpha float64) {
		needAVX512(t)
		if !(alpha > 0) || math.IsInf(alpha, 1) {
			return
		}
		cols := 1 + int(width)%40
		rows := len(raw) / 4 / cols
		src := make([]float32, rows*cols)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		softmaxBoth(t, src, rows, cols, alpha)
	})
}
