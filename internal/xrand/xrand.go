// Package xrand holds drop-in replacements for two math/rand operations
// whose cost is out of proportion to what the per-client streams take
// from them, each reproducing math/rand's output bit for bit:
//
//   - Source is math/rand's additive lagged-Fibonacci generator with an
//     O(1) Seed. math/rand fills all 607 words of the feedback register
//     on every Seed (1 841 steps of the seeding LCG); a stream that is
//     re-seeded per client and asked for a handful of numbers touches a
//     few of them. Source derives each word when a draw first reads it.
//   - PermPrefix is rand.Perm(total)[:n] in O(n) memory.
//
// source_test.go pins both against math/rand.
package xrand

import "math/rand"

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

// seedPow[k] = 48271^k mod seedMod. math/rand seeds word i from LCG
// steps 21+3i, 22+3i and 23+3i, and step k of the LCG is seedPow[k]·seed
// mod seedMod, so every word is a closed-form function of the seed.
var seedPow = func() (p [23 + 3*(regLen-1) + 1]uint32) {
	x := uint64(1)
	for k := range p {
		p[k] = uint32(x)
		x = x * 48271 % seedMod
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

// Seed resets the generator to the state rand.NewSource(seed) starts in.
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

// word derives register word i from the seed.
func (s *Source) word(i int) int64 {
	p := seedPow[21+3*i:][:3]
	return int64(mulmod(p[0], s.seed))<<40 ^ int64(mulmod(p[1], s.seed))<<20 ^
		int64(mulmod(p[2], s.seed)) ^ cooked[i]
}

// mulmod returns a·b mod seedMod for a, b < 2³¹, folding the high bits
// onto the low ones (2³¹ ≡ 1).
func mulmod(a uint32, b uint64) uint64 {
	x := uint64(a) * b
	x = x&seedMod + x>>31
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
