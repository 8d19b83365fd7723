// Package xrand holds drop-in replacements for math/rand operations
// whose cost is out of proportion to what the per-client streams take
// from them, each reproducing math/rand's output bit for bit:
//
//   - Source is math/rand's additive lagged-Fibonacci generator.
//     math/rand fills all 607 words of its feedback register on every
//     Seed (1 841 steps of the seeding LCG). Source seeds two ways, and
//     each caller picks the one its stream's length pays for.
//   - Source's Float64, Intn and NormFloat64 are rand.Rand's methods of
//     those names on a concrete source, with no interface call per draw,
//     and NormFloat64s draws a slice of normals with the register's
//     indices in locals. The ziggurat tables in normal.go are copied
//     from $GOROOT/src/math/rand/normal.go under its BSD notice.
//   - PermPrefix is rand.Perm(total)[:n] in O(n) memory.
//
// Seed is O(1): each word is derived when a draw first reads it, so a
// stream that is re-seeded per client and asked for a handful of
// numbers pays for the few words it touches. A device trace entry (4
// draws) and a local session's batch indices, in the round engine and
// in HeteroFL, seed this way.
//
// SeedFull derives all 607 words in one pass: one ZMM kernel at the
// avx512 tier (derive_amd64.s), a Go loop elsewhere. Deriving lazily,
// each of the first 273 draws costs two words and the next 61 one each,
// at ~5 ns a word against ~1 ns in the kernel. So a stream that reads
// more than ~50 draws is cheaper seeded in full at the avx512 tier; on
// the Go loop (~2.7 µs a register) only one that reads most of the
// lazy phase's 334 is. data.Generator.Synth seeds in full: a client
// shard draws 2·featureDim normals for its client transform before its
// first sample, and ~500 values for a train split at the round_scale
// shape. It draws through Source's methods, each row's normals in one
// NormFloat64s call.
//
// source_test.go pins each of them against math/rand.
package xrand

import (
	"math/rand"

	"fedtrans/internal/tensor"
)

const (
	regLen = 607
	regTap = 273
	// seedMod is the modulus of the seeding LCG x ← 48271·x mod (2³¹−1).
	seedMod = 1<<31 - 1
	// lazyDraws is the number of draws after Seed that read a word no
	// earlier draw has written: feed walks 333…0 over them, and tap walks
	// 606…334 over the first regTap of them before reaching words feed
	// already produced. From draw lazyDraws+1 on, the register is complete.
	lazyDraws = regLen - regTap
)

// seedPow[i] = 48271^(21+3i) mod seedMod. math/rand seeds word i from
// LCG steps 21+3i, 22+3i and 23+3i, and step k of the LCG is
// 48271^k·seed mod seedMod, so every word is a closed-form function of
// the seed: its first value is seedPow[i]·seed, and the other two are one
// step of the LCG each from the one before.
var seedPow = func() (p [regLen]uint32) {
	x := uint64(1)
	for range 21 {
		x = x * 48271 % seedMod
	}
	const step3 = 48271 * 48271 * 48271 % seedMod // three LCG steps
	for i := range p {
		p[i] = uint32(x)
		x = x * step3 % seedMod
	}
	return p
}()

// Source is a rand.Source64 that produces exactly the sequence of
// rand.NewSource for every seed. It is not safe for concurrent use.
type Source struct {
	tap, feed int
	// lazy is set from Seed until the register is complete (lazyDraws
	// draws later, when feed reaches 0); meanwhile vec[0:feed] and
	// vec[lazyDraws:tap] (all of vec[lazyDraws:] before the first draw)
	// are not yet derived.
	lazy bool
	seed uint64 // normalized to [1, seedMod)
	vec  [regLen]int64
}

// New returns a Source seeded with seed; wrap it in rand.New.
func New(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed resets the generator to the state rand.NewSource(seed) starts in,
// deriving the register lazily.
func (s *Source) Seed(seed int64) {
	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.tap = 0
	s.feed = regLen - regTap
	s.lazy = true
}

// SeedFull is Seed followed by the derivation of every register word:
// it leaves the state Seed and lazyDraws draws' derivation reach, before
// any draw. The kernel runs at the tensor package's current tier.
func (s *Source) SeedFull(seed int64) {
	s.Seed(seed)
	i := 0
	if tensor.CurrentSIMDLevel() >= tensor.SIMDAVX512 {
		i = regLen &^ 7
		deriveAsm512(&s.vec[0], &seedPow[0], &cooked[0], s.seed, i)
	}
	for ; i < regLen; i++ {
		s.vec[i] = s.word(i)
	}
	s.lazy = false
}

// word derives register word i from the seed.
func (s *Source) word(i int) int64 {
	x0 := reduce(uint64(seedPow[i]) * s.seed)
	x1 := reduce(x0 * 48271)
	return int64(x0<<40^x1<<20^reduce(x1*48271)) ^ cooked[i]
}

// reduce returns x mod seedMod for a product x < 2⁶² of two nonzero
// residues of the prime seedMod, so never a multiple of it: one fold of
// the bits from 31 up onto the low 31 (2³¹ ≡ 1) leaves at most
// 2·seedMod, and one conditional subtract finishes.
func reduce(x uint64) uint64 {
	x = x&seedMod + x>>31
	if x >= seedMod {
		x -= seedMod
	}
	return x
}

// Int63 implements rand.Source.
func (s *Source) Int63() int64 {
	if s.lazy {
		s.derive()
	}
	return int64(s.next() & (1<<63 - 1))
}

// Uint64 implements rand.Source64.
func (s *Source) Uint64() uint64 {
	if s.lazy {
		s.derive()
	}
	return s.next()
}

// next is math/rand's draw. It is small enough to inline, and derive is
// kept out of it, so past the lazy phase a draw through either entry
// point is one call deep, as in math/rand, plus a compare.
func (s *Source) next() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += regLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += regLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// derive fills in the words the next draw reads.
func (s *Source) derive() {
	feed := s.feed - 1
	s.vec[feed] = s.word(feed)
	if tap := (s.tap + regLen - 1) % regLen; tap >= lazyDraws {
		s.vec[tap] = s.word(tap)
	}
	s.lazy = feed > 0
}

// PermPrefix returns rand.Perm(total)[:n] — the same values from the
// same draws, leaving rng at the same position — without materializing
// the other total−n slots. n must lie in [0, total].
func PermPrefix(rng *rand.Rand, total, n int) []int {
	m := make([]int, n+1) // m[n] absorbs the writes Perm makes past the prefix
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	// Past the prefix, Perm's m[i] = m[j] lands outside it; only m[j] = i
	// can still change a slot that is kept. Storing unconditionally, with
	// j clamped to the spare slot, avoids a data-dependent branch that
	// mispredicts ~n·ln(total/n) times (measured: 0.76 → 0.60 ms at
	// 10⁵/10³, against 0.65 ms for Perm itself).
	for i := n; i < total; i++ {
		m[min(rng.Intn(i+1), n)] = i
	}
	return m[:n]
}
