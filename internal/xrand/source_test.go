package xrand

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"fedtrans/internal/tensor"
)

// tiers are the tensor tiers SeedFull runs at on this host: the Go loop
// always, the kernel where the host has AVX-512.
func tiers() []tensor.SIMDLevel {
	if tensor.SIMDSupported() >= tensor.SIMDAVX512 {
		return []tensor.SIMDLevel{tensor.SIMDGeneric, tensor.SIMDAVX512}
	}
	return []tensor.SIMDLevel{tensor.SIMDGeneric}
}

// goRegister is the register the Go loop derives for seed: the oracle
// for the kernel's.
func goRegister(seed int64) [regLen]int64 {
	var s Source
	s.Seed(seed)
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	return s.vec
}

// testSeeds covers every branch of seed normalization (zero, the
// replacement constant, negatives, multiples of the modulus, the int64
// extremes) plus 200 arbitrary values.
func testSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, seedMod, 1 << 31, -seedMod, 89482311, 1 << 40, -(1 << 40),
		math.MinInt64, math.MaxInt64,
	}
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// drawCounts straddles the points where the lazy source changes
// behaviour: tap reaches derived words after 273 draws, the register is
// complete after 334, and both indices have wrapped after 607.
var drawCounts = []int{1, 4, 273, 274, 333, 334, 335, 606, 607, 608, 2000}

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range testSeeds() {
		for _, n := range drawCounts {
			want := rand.NewSource(seed).(rand.Source64)
			got := New(seed)
			for i := 0; i < n; i++ {
				// Alternate the two entry points: they share one state.
				if i%2 == 0 {
					if g, w := got.Uint64(), want.Uint64(); g != w {
						t.Fatalf("seed %d draw %d of %d: Uint64 %#x, want %#x", seed, i, n, g, w)
					}
				} else if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d draw %d of %d: Int63 %#x, want %#x", seed, i, n, g, w)
				}
			}
		}
	}
}

// consume draws through every rand.Rand method the repository's
// per-client streams use and returns what they produced.
func consume(r *rand.Rand, n int) []float64 {
	out := make([]float64, 0, 4*n+64)
	for i := 0; i < n; i++ {
		out = append(out, r.Float64(), r.NormFloat64(), float64(r.Intn(i+1)), float64(r.Uint64()>>11))
	}
	for _, v := range r.Perm(n%50 + 1) {
		out = append(out, float64(v))
	}
	s := make([]float64, n%40+2)
	for i := range s {
		s[i] = float64(i)
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	return append(out, s...)
}

func TestRandMethodsMatchMathRand(t *testing.T) {
	for _, seed := range testSeeds()[:40] {
		for _, n := range drawCounts {
			want := consume(rand.New(rand.NewSource(seed)), n)
			got := consume(rand.New(New(seed)), n)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d, %d rounds: rand.Rand over xrand.Source diverges from math/rand", seed, n)
			}
		}
	}
}

// TestReseedInPlace is the property the per-client call sites rely on:
// rng.Seed(s) on a used xrand-backed *rand.Rand is indistinguishable
// from rand.New(rand.NewSource(s)), wherever the previous stream stopped.
func TestReseedInPlace(t *testing.T) {
	seeds := testSeeds()
	src := New(99)
	rng := rand.New(src)
	defer tensor.SetSIMDLevel(tensor.CurrentSIMDLevel())
	for _, level := range tiers() {
		tensor.SetSIMDLevel(level)
		for _, full := range []bool{false, true} {
			for k, n := range drawCounts {
				for j, seed := range seeds[:30] {
					// Leave the previous stream at a different depth each
					// time, including mid-way through the lazy phase.
					for i := 0; i < (k*31+j*7)%700; i++ {
						rng.Int63()
					}
					if full {
						src.SeedFull(seed)
					} else {
						rng.Seed(seed)
					}
					if got, want := consume(rng, n), consume(rand.New(rand.NewSource(seed)), n); !slices.Equal(got, want) {
						t.Fatalf("%v tier, full %v: re-seed to %d after a used stream, %d rounds: diverges from a fresh math/rand source",
							level, full, seed, n)
					}
				}
			}
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range testSeeds()[:11] {
		for _, n := range []uint16{1, 334, 608} {
			f.Add(seed, n)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		want := rand.NewSource(seed).(rand.Source64)
		got := New(seed)
		for i := 0; i < int(n); i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: %#x, want %#x", seed, i, g, w)
			}
		}
		// Re-seeding the used source must equal a fresh one.
		got.Seed(seed + 1)
		want = rand.NewSource(seed + 1).(rand.Source64)
		for i := 0; i < int(n%700); i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("re-seed %d draw %d: %#x, want %#x", seed+1, i, g, w)
			}
		}
		// So must a full re-seed of it, at every tier, and the register
		// it writes must be the Go loop's word for word.
		reg := goRegister(seed)
		for _, level := range tiers() {
			prev := tensor.SetSIMDLevel(level)
			got.SeedFull(seed)
			tensor.SetSIMDLevel(prev)
			for i := range reg {
				if got.vec[i] != reg[i] {
					t.Fatalf("%v tier: full re-seed %d: word %d %#x, Go loop %#x", level, seed, i, got.vec[i], reg[i])
				}
			}
			want = rand.NewSource(seed).(rand.Source64)
			for i := 0; i < int(n); i++ {
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("%v tier: full re-seed %d draw %d: %#x, want %#x", level, seed, i, g, w)
				}
			}
		}
	})
}

func TestPermPrefixMatchesPerm(t *testing.T) {
	for _, c := range []struct{ total, n int }{{0, 0}, {1, 0}, {1, 1}, {5, 5}, {10, 3}, {100_000, 1000}} {
		for seed := int64(1); seed <= 3; seed++ {
			a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			got, want := PermPrefix(a, c.total, c.n), b.Perm(c.total)[:c.n]
			if !slices.Equal(got, want) {
				t.Fatalf("PermPrefix(%d, %d) seed %d = %v, want %v", c.total, c.n, seed, got, want)
			}
			if g, w := a.Int63(), b.Int63(); g != w {
				t.Fatalf("PermPrefix(%d, %d) seed %d leaves the stream elsewhere than Perm", c.total, c.n, seed)
			}
		}
	}
}

func TestAllocs(t *testing.T) {
	rng := rand.New(New(1))
	seed := int64(0)
	if a := testing.AllocsPerRun(100, func() {
		seed++
		rng.Seed(seed)
		sink += rng.Float64() + rng.NormFloat64() + rng.NormFloat64() + rng.NormFloat64()
	}); a != 0 {
		t.Errorf("re-seed + 4 draws: %v allocs, want 0", a)
	}
	src := New(1)
	rng = rand.New(src)
	if a := testing.AllocsPerRun(100, func() {
		seed++
		src.SeedFull(seed)
		sink += rng.Float64() + rng.NormFloat64() + rng.NormFloat64() + rng.NormFloat64()
	}); a != 0 {
		t.Errorf("full re-seed + 4 draws: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(10, func() { sink += float64(PermPrefix(rng, 100_000, 1000)[0]) }); a > 1 {
		t.Errorf("PermPrefix(100000, 1000): %v allocs, want at most the one result slice", a)
	}
}

var sink float64

// reseed4 is what Trace.At costs a source: one Seed and four draws.
func reseed4(b *testing.B, rng *rand.Rand) {
	for i := 0; i < b.N; i++ {
		rng.Seed(int64(i))
		sink += rng.Float64() + rng.NormFloat64() + rng.NormFloat64() + rng.NormFloat64()
	}
}

func BenchmarkReseed4Std(b *testing.B)  { reseed4(b, rand.New(rand.NewSource(0))) }
func BenchmarkReseed4Lazy(b *testing.B) { reseed4(b, rand.New(New(0))) }

// BenchmarkSeedFull derives the whole register: sub-benchmark kernel at
// the avx512 tier (skipped without AVX-512), go on the Go loop.
func BenchmarkSeedFull(b *testing.B) {
	for _, c := range []struct {
		name  string
		level tensor.SIMDLevel
	}{{"kernel", tensor.SIMDAVX512}, {"go", tensor.SIMDGeneric}} {
		b.Run(c.name, func(b *testing.B) {
			if tensor.SIMDSupported() < c.level {
				b.Skip("no AVX-512")
			}
			defer tensor.SetSIMDLevel(tensor.SetSIMDLevel(c.level))
			s := New(0)
			for i := 0; i < b.N; i++ {
				s.SeedFull(int64(i))
			}
			sink += float64(s.vec[0])
		})
	}
}

func int63Steady(n int, src rand.Source) time.Duration {
	for i := 0; i < regLen; i++ { // past the lazy phase
		src.Int63()
	}
	var x int64
	start := time.Now()
	for i := 0; i < n; i++ {
		x ^= src.Int63()
	}
	d := time.Since(start)
	sink += float64(x)
	return d
}

func BenchmarkInt63SteadyStd(b *testing.B)  { int63Steady(b.N, rand.NewSource(1)) }
func BenchmarkInt63SteadyLazy(b *testing.B) { int63Steady(b.N, New(1)) }

// TestSteadyStateCost guards the long streams that also run on Source
// (a local session's batch sampling, data synthesis): once the register
// is complete a draw may cost at most 1.5× math/rand's. Fastest of
// several interleaved repetitions on each side, so a disturbed host
// does not decide the outcome.
func TestSteadyStateCost(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const draws = 2_000_000
	std, lazy := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for rep := 0; rep < 9; rep++ {
		std = min(std, int63Steady(draws, rand.NewSource(1)))
		lazy = min(lazy, int63Steady(draws, New(1)))
	}
	t.Logf("steady-state Int63: math/rand %.2f ns, xrand %.2f ns (%.2fx)",
		float64(std)/draws, float64(lazy)/draws, float64(lazy)/float64(std))
	if float64(lazy) > 1.5*float64(std) {
		t.Errorf("steady-state Int63 costs %.2fx math/rand's, want at most 1.5x", float64(lazy)/float64(std))
	}
}

// firstDraws is a rand.Source that records the first draw each
// NormFloat64 takes, once armed before it.
type firstDraws struct {
	rand.Source
	first int64
	armed bool
}

func (f *firstDraws) Int63() int64 {
	v := f.Source.Int63()
	if f.armed {
		f.first, f.armed = v, false
	}
	return v
}

// normalSeeds are testSeeds()' first 16 plus boundarySeed.
func normalSeeds() []int64 { return append(testSeeds()[:16], boundarySeed) }

// boundarySeed's stream, read as normals, has one whose first draw j
// sits exactly on the fast path's bound (|j| == kn[j&0x7F]), which the
// fast path must send to the wedge (its 92nd normal; a search over
// seeds found it).
const boundarySeed = 1680518

// normalLengths are the slice lengths 0…300, plus three whose draws run
// past a lazily seeded source's lazyDraws, so NormFloat64s enters its
// register loop from the lazy phase.
func normalLengths() []int {
	var ns []int
	for n := 0; n <= 300; n++ {
		ns = append(ns, n)
	}
	return append(ns, 340, 400, 700)
}

// TestNormFloat64sMatchesMathRand fills slices of every normalLengths
// length from sources seeded both ways: the values, bit for bit, and the
// draw after them must be a math/rand source's. The sweep must leave the
// fast path on the base strip, on a wedge, and on the fast path's bound.
func TestNormFloat64sMatchesMathRand(t *testing.T) {
	var base, wedge, bound int
	src := New(0)
	for _, seed := range normalSeeds() {
		for _, full := range []bool{false, true} {
			for _, n := range normalLengths() {
				if full {
					src.SeedFull(seed)
				} else {
					src.Seed(seed)
				}
				got := make([]float64, n)
				src.NormFloat64s(got)
				rec := &firstDraws{Source: rand.NewSource(seed)}
				ref := rand.New(rec)
				for i, g := range got {
					rec.armed = true
					if w := ref.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("seed %d, full %v, length %d: normal %d is %v, want %v", seed, full, n, i, g, w)
					}
					if j := int32(rec.first >> 31); absInt32(j) >= kn[j&0x7F] {
						switch {
						case absInt32(j) == kn[j&0x7F]:
							bound++
						case j&0x7F == 0:
							base++
						default:
							wedge++
						}
					}
				}
				if g, w := src.Int63(), ref.Int63(); g != w {
					t.Fatalf("seed %d, full %v, length %d: the next draw is %#x, want %#x", seed, full, n, g, w)
				}
			}
		}
	}
	t.Logf("normals off the fast path: %d on the base strip, %d on a wedge, %d on the bound", base, wedge, bound)
	if base == 0 || wedge == 0 || bound == 0 {
		t.Errorf("the sweep left the fast path %d times on the base strip, %d on a wedge and %d on its bound: each must be hit", base, wedge, bound)
	}
}

// uniforms draws n rounds of Float64, NormFloat64 and Intn, at bounds
// that cover Intn's power-of-two masks and Int31n's rejection loop, which
// rejects most often for n just above 2³⁰.
func uniforms(n int, float func() float64, norm func() float64, intn func(int) int) []float64 {
	bounds := []int{1, 2, 3, 4, 7, 64, 1000, 1<<30 + 1, 1<<31 - 1}
	out := make([]float64, 0, 3*n)
	for i := 0; i < n; i++ {
		out = append(out, float(), norm(), float64(intn(bounds[i%len(bounds)])))
	}
	return out
}

// TestFloat64IntnMatchMathRand holds Source's Float64, NormFloat64 and
// Intn to rand.Rand's over both seedings, every length 0…300: the same
// values and the same draw after them.
func TestFloat64IntnMatchMathRand(t *testing.T) {
	src := New(0)
	for _, seed := range testSeeds()[:16] {
		for _, full := range []bool{false, true} {
			for n := 0; n <= 300; n++ {
				if full {
					src.SeedFull(seed)
				} else {
					src.Seed(seed)
				}
				ref := rand.New(rand.NewSource(seed))
				got := uniforms(n, src.Float64, src.NormFloat64, src.Intn)
				want := uniforms(n, ref.Float64, ref.NormFloat64, ref.Intn)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d, full %v, %d rounds: Source's draws diverge from rand.Rand's", seed, full, n)
				}
				if g, w := src.Int63(), ref.Int63(); g != w {
					t.Fatalf("seed %d, full %v, %d rounds: the next draw is %#x, want %#x", seed, full, n, g, w)
				}
			}
		}
	}
}
