package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestExpLanesMatchMathExp holds the softmax kernel's lane exponent to
// math.Exp bit for bit over the range the kernel accepts, [−700, 0]: the
// float32 rows the softmax stores hide most last-bit differences of a
// float64 exp, so the lanes are checked before narrowing.
func TestExpLanesMatchMathExp(t *testing.T) {
	needAVX512(t)
	rng := rand.New(rand.NewSource(11))
	xs := []float64{0, math.Copysign(0, -1), -700, -699.9999999999999, -1e-300, -5e-324,
		-math.Ln2 / 2, -math.Ln2, -1.5 * math.Ln2, -0.5, -1, -2, -100, -708.39 + 8.39}
	for i := 0; i < 1<<20; i++ {
		switch i % 3 {
		case 0:
			xs = append(xs, -700*rng.Float64())
		case 1:
			xs = append(xs, -rng.ExpFloat64())
		default: // next to a half-integer multiple of ln2, where k rounds
			k := float64(rng.Intn(1010)) + 0.5
			xs = append(xs, math.Nextafter(-k*math.Ln2, float64(rng.Intn(2))*-1400))
		}
	}
	for len(xs)%8 != 0 {
		xs = append(xs, 0)
	}
	for i := 0; i < len(xs); i += 8 {
		var lane [8]float64
		copy(lane[:], xs[i:])
		expAsm512(&lane)
		for j, got := range lane {
			x := xs[i+j]
			if want := math.Exp(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("exp(%v) = %v (%#x), math.Exp %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
