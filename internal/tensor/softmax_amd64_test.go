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

// TestColsumAddsColumnsAscending holds the softmax kernel's group sum
// (COLSUM: transpose eight rows' exponentials, add the columns) to the
// ascending float64 row sums the one-row path and softmaxRow compute. A
// stored row shows its sum only through float32(1/sum), which hides a
// reordered add in all but about 2⁻²⁹ of rows, so the sums are checked
// before the divide, on exponentials spread over many binades, where
// the order of the adds changes the sum.
func TestColsumAddsColumnsAscending(t *testing.T) {
	needAVX512(t)
	rng := rand.New(rand.NewSource(12))
	const groups = 1000
	orderMatters := 0
	for g := 0; g < groups; g++ {
		var e [64]float64
		var sums [8]float64
		for i := range e {
			e[i] = math.Exp(-40 * rng.Float64())
		}
		for r := range sums {
			sums[r] = math.Exp(-10 * rng.Float64())
		}
		want, down := sums, sums
		for r := range want {
			for c := 0; c < 8; c++ {
				want[r] += e[8*r+c]
				down[r] += e[8*r+7-c]
			}
			if want[r] != down[r] {
				orderMatters++
			}
		}
		colsumAsm512(&e, &sums)
		for r, got := range sums {
			if math.Float64bits(got) != math.Float64bits(want[r]) {
				t.Fatalf("group %d row %d: COLSUM sum %v, ascending sum %v (exponentials %v)", g, r, got, want[r], e[8*r:8*r+8])
			}
		}
	}
	// Guard the inputs: a reversed order must change a quarter of the
	// sums at least (about 40 % of them change at this seed).
	if orderMatters < 8*groups/4 {
		t.Fatalf("only %d of %d rows depend on the order of their adds", orderMatters, 8*groups)
	}
}
