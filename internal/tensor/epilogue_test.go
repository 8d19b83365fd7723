package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// The branch-free ReLU kernels must equal these branchy scalar forms —
// the code they replaced — bit for bit on every float32 pattern.
func refRelu(v float32) float32 {
	if v > 0 {
		return v
	}
	return 0
}

func refMask(g, pre float32) float32 {
	if pre <= 0 {
		return 0
	}
	return g
}

// specialBits are the patterns where a bit trick can go wrong: both
// zeros, both infinities, quiet and signalling NaNs of both signs with
// extreme payloads, denormals, and the ends of the normal range.
var specialBits = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7F800000, 0xFF800000, // ±Inf
	0x7FC00000, 0xFFC00000, 0x7FFFFFFF, 0xFFFFFFFF, // quiet NaNs
	0x7F800001, 0xFF800001, 0x7FBFFFFF, 0xFFBFFFFF, // signalling NaNs
	0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF, // denormals
	0x00800000, 0x80800000, 0x7F7FFFFF, 0xFF7FFFFF, // smallest / largest normals
	0x3F800000, 0xBF800000, // ±1
}

func fromBits(bits []uint32) []float32 {
	out := make([]float32, len(bits))
	for i, b := range bits {
		out[i] = math.Float32frombits(b)
	}
	return out
}

func wantBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s[%d] = %#08x, branchy reference %#08x", what, i, g, w)
		}
	}
}

// checkEpilogues runs every epilogue kernel over pre-activation bits
// pre, gradient bits grad and a finite bias vector (len(pre) must be a
// multiple of len(bias)), against the scalar references.
func checkEpilogues(t *testing.T, pre, grad []uint32, bias []float32) {
	t.Helper()
	n := len(pre)
	src := fromBits(pre)

	got, want := make([]float32, n), make([]float32, n)
	for i, v := range src {
		got[i], want[i] = relu(v), refRelu(v)
	}
	wantBits(t, "relu", got, want)

	g := FromSlice(fromBits(grad), n)
	masked := make([]float32, n)
	for i, v := range g.Data {
		masked[i] = refMask(v, src[i])
	}
	ReluMask(g, FromSlice(src, n))
	wantBits(t, "ReluMask", g.Data, masked)
	g = FromSlice(fromBits(grad), n)
	into := FromSlice(fromBits(pre), n) // dirty destination: every element must be written
	ReluMaskInto(into, g, FromSlice(src, n))
	wantBits(t, "ReluMaskInto", into.Data, masked)
	wantBits(t, "ReluMaskInto source", g.Data, fromBits(grad))
	ReluMaskInto(g, g, FromSlice(src, n))
	wantBits(t, "ReluMaskInto aliased", g.Data, masked)

	cols := len(bias)
	if cols == 0 {
		return
	}
	rows := n / cols
	biased, act := make([]float32, n), make([]float32, n)
	for i, v := range src {
		biased[i] = v + bias[i%cols]
		act[i] = refRelu(biased[i])
	}
	p, a := FromSlice(fromBits(pre), rows, cols), FromSlice(make([]float32, n), rows, cols)
	AddBiasReluRows(a, p, FromSlice(bias, cols))
	wantBits(t, "AddBiasReluRows pre", p.Data, biased)
	wantBits(t, "AddBiasReluRows act", a.Data, act)
	p = FromSlice(fromBits(pre), rows, cols)
	AddBiasRows(p, FromSlice(bias, cols))
	wantBits(t, "AddBiasRows", p.Data, biased)

	// Channel-major: the same data read as cols channels of rows
	// elements, channel c biased by bias[c].
	for i, v := range src {
		biased[i] = v + bias[i/rows]
		act[i] = refRelu(biased[i])
	}
	pc, ac := fromBits(pre), make([]float32, n)
	AddChannelBiasRelu(ac, pc, bias, rows)
	wantBits(t, "AddChannelBiasRelu pre", pc, biased)
	wantBits(t, "AddChannelBiasRelu act", ac, act)
	pc = fromBits(pre)
	AddChannelBiasRelu(nil, pc, bias, rows)
	wantBits(t, "AddChannelBiasRelu bias only", pc, biased)
}

// eachTier runs fn at every tier the host supports, named by it.
func eachTier(t *testing.T, fn func(t *testing.T)) {
	orig := CurrentSIMDLevel()
	defer SetSIMDLevel(orig)
	for level := SIMDGeneric; level <= SIMDSupported(); level++ {
		SetSIMDLevel(level)
		t.Run(level.String(), fn)
	}
}

// TestEpilogueBitExactSpecialsAndTails covers every length 0–67 (each
// tail of any unrolling) with the special patterns rotated through
// every position, at every host tier.
func TestEpilogueBitExactSpecialsAndTails(t *testing.T) { eachTier(t, testEpilogueSpecials) }

func testEpilogueSpecials(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for n := 0; n <= 67; n++ {
		pre, grad := make([]uint32, n), make([]uint32, n)
		for i := range pre {
			pre[i] = specialBits[(i+n)%len(specialBits)]
			grad[i] = specialBits[(i*7+n+3)%len(specialBits)]
			if i%3 == 2 {
				pre[i], grad[i] = rng.Uint32(), rng.Uint32()
			}
		}
		bias := make([]float32, n) // one row of n columns / n channels of one
		for j := range bias {
			bias[j] = float32(rng.NormFloat64())
		}
		checkEpilogues(t, pre, grad, bias)
		if n%4 == 0 && n > 0 { // and as n/4 rows of 4 with signed-zero biases
			checkEpilogues(t, pre, grad, fromBits([]uint32{0, 0x80000000, 0x3F800000, 0xBF800000}))
		}
	}
}

// TestEpilogueBitExactRandomPatterns draws 2²⁰ raw bit patterns, so
// NaN payloads, denormals and both signs appear at their natural share,
// at every host tier.
func TestEpilogueBitExactRandomPatterns(t *testing.T) { eachTier(t, testEpilogueRandom) }

func testEpilogueRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1818))
	const n = 1 << 20
	pre, grad := make([]uint32, n), make([]uint32, n)
	for i := range pre {
		pre[i], grad[i] = rng.Uint32(), rng.Uint32()
	}
	bias := make([]float32, 64)
	for j := range bias {
		bias[j] = float32(rng.NormFloat64())
	}
	checkEpilogues(t, pre, grad, bias)
}
