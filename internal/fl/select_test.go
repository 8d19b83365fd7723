package fl

import (
	"math/rand"
	"slices"
	"testing"

	"fedtrans/internal/xrand"
)

// selectFrom is SelectClients over an explicit candidate list: n of the
// candidates, drawn the same way. It is how the round loop topped up its
// in-flight set before selectFree, and stays as selectFree's oracle.
func selectFrom(candidates []int, n int, rng *rand.Rand) []int {
	if n >= len(candidates) {
		return append([]int(nil), candidates...)
	}
	out := xrand.PermPrefix(rng, len(candidates), n)
	for i, j := range out {
		out[i] = candidates[j]
	}
	return out
}

// TestSelectFreeMatchesCandidateList holds selection by rank to the
// candidate-list selection it replaced: over random populations and busy
// sets (none, the first client, the last, contiguous runs, all but one,
// all), selectFree(total, busy, want) must pick the clients
// selectFrom(free, min(want, len(free))) picks, in the same order, and
// leave the RNG after the same number of draws.
func TestSelectFreeMatchesCandidateList(t *testing.T) {
	meta := rand.New(rand.NewSource(42))
	for trial := range 600 {
		total := 1 + meta.Intn(5000)
		busy := busySet(meta, trial%8, total)
		free := make([]int, 0, total-len(busy))
		for c, j := 0, 0; c < total; c++ {
			if j < len(busy) && busy[j] == c {
				j++
				continue
			}
			free = append(free, c)
		}
		want := meta.Intn(len(free) + 3)
		seed := meta.Int63()

		oracleSrc := &countingSource{src: rand.NewSource(seed)}
		wantIDs := selectFrom(free, min(want, len(free)), rand.New(oracleSrc))
		src := &countingSource{src: rand.NewSource(seed)}
		got := selectFree(total, busy, want, rand.New(src))

		if !slices.Equal(got, wantIDs) || src.n != oracleSrc.n {
			t.Fatalf("total %d, %d busy %v, want %d:\nselectFree %v after %d draws\nselectFrom %v after %d draws",
				total, len(busy), head(busy), want, head(got), src.n, head(wantIDs), oracleSrc.n)
		}
	}
}

// busySet draws a sorted set of distinct busy clients in [0, total) of
// the given kind.
func busySet(rng *rand.Rand, kind, total int) []int {
	switch kind {
	case 0:
		return nil
	case 1:
		return []int{0}
	case 2:
		return []int{total - 1}
	case 3: // one contiguous run
		lo := rng.Intn(total)
		hi := lo + 1 + rng.Intn(total-lo)
		return seq(lo, hi)
	case 4: // a few runs, the first from client 0
		var b []int
		for lo := 0; lo < total; {
			hi := min(total, lo+1+rng.Intn(20))
			b = append(b, seq(lo, hi)...)
			lo = hi + 1 + rng.Intn(50)
		}
		return b
	case 5: // all clients but one
		skip := rng.Intn(total)
		return append(seq(0, skip), seq(skip+1, total)...)
	case 6:
		return seq(0, total)
	default: // a random subset of up to 400 clients
		b := xrand.PermPrefix(rng, total, rng.Intn(min(total, 400)+1))
		slices.Sort(b)
		return b
	}
}

// seq returns lo, lo+1, …, hi−1.
func seq(lo, hi int) []int {
	s := make([]int, 0, hi-lo)
	for c := lo; c < hi; c++ {
		s = append(s, c)
	}
	return s
}

// head trims a list for a failure message.
func head(s []int) []int { return s[:min(len(s), 12)] }
