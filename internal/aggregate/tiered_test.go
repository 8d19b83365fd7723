package aggregate

import (
	"math/rand"
	"testing"

	"fedtrans/internal/model"
)

// TestTieredMatchesSingleTier pins the two-tier bit-identity guarantee:
// for any edge count and shard width — edges owning many shards, one
// shard, or an empty slice of the flat space — folding the same update
// stream through TieredFedAvg produces bit-identical weights, loss, and
// sample count to the single-tier streaming accumulator.
func TestTieredMatchesSingleTier(t *testing.T) {
	for _, edges := range []int{1, 2, 3, 5, 16, 64} {
		for _, shard := range []int{3, 16, 1 << 20} {
			model.ResetIDs()
			ma := newModel(t, 5, 4)
			model.ResetIDs()
			mb := newModel(t, 5, 4)
			rng := rand.New(rand.NewSource(int64(edges*1000 + shard)))
			var batch []Update
			for i := 0; i < 9; i++ {
				u := randomUpdate(ma, rng, i%4)
				u.Staleness = i % 3
				batch = append(batch, u)
			}

			single := NewStreamingSharded(shard)
			tiered := NewTieredSharded(shard, edges)
			for _, u := range batch {
				if err := single.Add(ma, u); err != nil {
					t.Fatal(err)
				}
				ub := u
				ub.ModelID = mb.ID
				if err := tiered.Add(mb, ub); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := tiered.Updates(mb.ID), single.Updates(ma.ID); got != want {
				t.Fatalf("edges=%d shard=%d: Updates = %d, want %d", edges, shard, got, want)
			}
			lossA, nA, okA := single.Finalize(ma)
			lossB, nB, okB := tiered.Finalize(mb)
			if lossA != lossB || nA != nB || okA != okB {
				t.Fatalf("edges=%d shard=%d: finalize (%v,%d,%v) != single (%v,%d,%v)",
					edges, shard, lossB, nB, okB, lossA, nA, okA)
			}
			pa, pb := ma.Params(), mb.Params()
			for i := range pa {
				for j := range pa[i].Data {
					if pa[i].Data[j] != pb[i].Data[j] {
						t.Fatalf("edges=%d shard=%d: weight [%d][%d] %v != single %v",
							edges, shard, i, j, pb[i].Data[j], pa[i].Data[j])
					}
				}
			}
			if tiered.Updates(mb.ID) != 0 {
				t.Fatalf("edges=%d shard=%d: tiers not reset after Finalize", edges, shard)
			}
		}
	}
}

// TestTieredAbort pins that Abort clears every tier: a follow-up round
// folds from zero on all edges and the root.
func TestTieredAbort(t *testing.T) {
	model.ResetIDs()
	ma := newModel(t, 4)
	model.ResetIDs()
	mb := newModel(t, 4)
	rng := rand.New(rand.NewSource(5))

	tiered := NewTieredSharded(3, 4)
	single := NewStreamingSharded(3)
	poison := randomUpdate(ma, rng, 3)
	poison.ModelID = mb.ID
	if err := tiered.Add(mb, poison); err != nil {
		t.Fatal(err)
	}
	tiered.Abort()
	if n := tiered.Updates(mb.ID); n != 0 {
		t.Fatalf("Updates after Abort = %d", n)
	}

	u := randomUpdate(ma, rng, 2)
	if err := single.Add(ma, u); err != nil {
		t.Fatal(err)
	}
	u.ModelID = mb.ID
	if err := tiered.Add(mb, u); err != nil {
		t.Fatal(err)
	}
	single.Finalize(ma)
	tiered.Finalize(mb)
	pa, pb := ma.Params(), mb.Params()
	for i := range pa {
		for j := range pa[i].Data {
			if pa[i].Data[j] != pb[i].Data[j] {
				t.Fatalf("aborted state leaked into the next round at tensor %d index %d", i, j)
			}
		}
	}
}
