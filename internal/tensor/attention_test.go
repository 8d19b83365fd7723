package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The avx512 tier's attention block kernels against the Go bodies they
// replace, bit for bit: scoresZMM against scoresAcc, rowsZMM against
// rowsAcc in both orientations and softmaxBack8Asm512 against
// softmaxBackwardRows, over the shapes blockKernels sends them
// and the ones past its bounds, with ±0, two NaN payloads, ±Inf and
// subnormals among the operands. A NaN must come out where the Go body
// makes one, but its payload is not compared: when both operands of an
// operation are NaN, x86 keeps the first source's, and which operand the
// compiler makes the first source of the Go body's commutative
// operations changes with the build (-race and the fuzzer's coverage
// instrumentation pick differently from a plain build).

// attnValue draws one operand: an ordinary value, or with probability
// special/256 one of the values whose bits the kernels must carry as the
// Go bodies do; special = 255 draws signed zeros only, where the sign of
// every sum shows.
func attnValue(rng *rand.Rand, special uint8) Float {
	if special == 255 {
		return Float(math.Copysign(0, float64(rng.Intn(2))-0.5))
	}
	if rng.Intn(256) >= int(special) {
		return Float(rng.NormFloat64() * 2)
	}
	switch rng.Intn(9) {
	case 0:
		return 0
	case 1:
		return Float(math.Copysign(0, -1))
	case 2:
		return math.Float32frombits(0x7fa00001) // signalling, payload 1
	case 3:
		return math.Float32frombits(0xffc00abc) // quiet, negative, another payload
	case 4:
		return Float(math.Inf(1))
	case 5:
		return Float(math.Inf(-1))
	case 6:
		return math.Float32frombits(0x00000123)
	case 7:
		return math.Float32frombits(0x80400000)
	default:
		return math.MaxFloat32
	}
}

func attnFill(rng *rand.Rand, n int, special uint8) []Float {
	v := make([]Float, n)
	for i := range v {
		v[i] = attnValue(rng, special)
	}
	return v
}

// attnBlockBoth runs one (t, dh) block at head h of heads through the
// kernels blockKernels picks and through the Go bodies, and fails on
// the first bit that differs. Weights are ±0 with probability zeros/256,
// so whole quads of them are often zero.
func attnBlockBoth(t *testing.T, seed int64, tt, dh, heads, h int, special, zeros uint8) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ld := heads * dh
	off := h * dh
	x, y := attnFill(rng, tt*ld, special), attnFill(rng, tt*ld, special)
	w := attnFill(rng, tt*tt, special)
	for i := range w {
		if rng.Intn(256) < int(zeros) {
			w[i] = Float(math.Copysign(0, float64(rng.Intn(2))-0.5))
		}
	}
	s0, c0 := attnFill(rng, tt*tt, special), attnFill(rng, tt*ld, special)
	scores, rows := blockKernels(tt, dh)
	name := fmt.Sprintf("seed %d t=%d dh=%d heads=%d h=%d", seed, tt, dh, heads, h)

	want, got := append([]Float(nil), s0...), append([]Float(nil), s0...)
	scoresAcc(want, x[off:], y[off:], tt, dh, ld)
	scores(got, x[off:], y[off:], tt, dh, ld)
	sameAttnBits(t, name+" scores", got, want)
	for _, o := range [][2]int{{tt, 1}, {1, tt}} {
		want, got := append([]Float(nil), c0...), append([]Float(nil), c0...)
		rowsAcc(want[off:], w, o[0], o[1], y[off:], tt, dh, ld)
		rows(got[off:], w, o[0], o[1], y[off:], tt, dh, ld)
		sameAttnBits(t, fmt.Sprintf("%s rows (wi, wp) = %v", name, o), got, want)
	}
	// The softmax backward in place, as AttentionBackwardInto runs it
	// (one kernel call at t = 8), against softmaxBackwardRows.
	alpha := Float(1 / math.Sqrt(float64(dh)))
	want, got = append([]Float(nil), s0...), append([]Float(nil), s0...)
	softmaxBackwardRows(want, w, want, tt, tt, alpha)
	softmaxBackBlock(got, w, tt, alpha)
	sameAttnBits(t, name+" softmax backward", got, want)
}

func sameAttnBits(t *testing.T, name string, got, want []Float) {
	t.Helper()
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w && !(got[i] != got[i] && want[i] != want[i]) {
			t.Fatalf("%s: element %d = %#x (%v), Go body %#x (%v)", name, i, g, got[i], w, want[i])
		}
	}
}

// TestAttentionKernelsMatchGoBodies sweeps every shape the block kernels
// take (t ≤ 16, dh < 8) and the first past each bound, at several head
// counts and positions, ordinary and special-laden operands, and
// weights with and without all-zero quads.
func TestAttentionKernelsMatchGoBodies(t *testing.T) {
	needAVX512(t)
	defer SetSIMDLevel(SetSIMDLevel(SIMDAVX512))
	seed := int64(0)
	for tt := 1; tt <= 17; tt++ {
		for dh := 1; dh <= 8; dh++ {
			for _, heads := range []int{1, 3, 8} {
				for _, mix := range [][2]uint8{{0, 0}, {0, 200}, {40, 128}, {255, 0}} {
					seed++
					attnBlockBoth(t, seed, tt, dh, heads, int(seed)%heads, mix[0], mix[1])
				}
			}
		}
	}
}

// FuzzAttentionBits draws the shape (t 1–17, dh 1–7, heads 1–8), the
// head, the share of special operands and of zero weights.
func FuzzAttentionBits(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(2), uint8(4), uint8(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(7), uint8(5), uint8(3), uint8(2), uint8(64), uint8(200))
	f.Add(int64(3), uint8(17), uint8(7), uint8(8), uint8(7), uint8(200), uint8(128))
	f.Add(int64(4), uint8(12), uint8(4), uint8(2), uint8(1), uint8(255), uint8(0))
	f.Add(int64(5), uint8(7), uint8(1), uint8(3), uint8(3), uint8(40), uint8(64))
	f.Fuzz(func(t *testing.T, seed int64, tt, dh, heads, h, special, zeros uint8) {
		needAVX512(t)
		defer SetSIMDLevel(SetSIMDLevel(SIMDAVX512))
		n := 1 + int(heads)%8
		attnBlockBoth(t, seed, 1+int(tt)%17, 1+int(dh)%7, n, int(h)%n, special, zeros)
	})
}
