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
			if tiered.Pending() != 0 || tiered.Updates(mb.ID) != 0 {
				t.Fatalf("edges=%d shard=%d: tiers not reset after Finalize", edges, shard)
			}
		}
	}
}

// TestTieredSnapshotIsTopologyAgnostic pins the checkpoint contract:
// tiered snapshots are merged to single-tier form, so mid-round state
// written under one edge count restores under any other — including
// plain single-tier — and the continued round finalizes bit-identically.
func TestTieredSnapshotIsTopologyAgnostic(t *testing.T) {
	model.ResetIDs()
	ma := newModel(t, 5, 4)
	model.ResetIDs()
	mb := newModel(t, 5, 4)
	model.ResetIDs()
	mc := newModel(t, 5, 4)
	rng := rand.New(rand.NewSource(21))
	var batch []Update
	for i := 0; i < 8; i++ {
		batch = append(batch, randomUpdate(ma, rng, i+1))
	}

	full := NewStreamingSharded(7)
	for _, u := range batch {
		if err := full.Add(ma, u); err != nil {
			t.Fatal(err)
		}
	}

	half := NewTieredSharded(7, 3)
	for _, u := range batch[:4] {
		ub := u
		ub.ModelID = mb.ID
		if err := half.Add(mb, ub); err != nil {
			t.Fatal(err)
		}
	}
	snaps := half.Snapshot()
	if len(snaps) != 1 || snaps[0].Count != 4 {
		t.Fatalf("snapshot = %+v, want one entry with count 4", snaps)
	}
	half.Abort() // the copy must be independent of the source tiers

	lossA, nA, okA := full.Finalize(ma)

	for _, v := range []struct {
		name    string
		resumed Aggregator
		dst     *model.Model
	}{
		{"tiered5", NewTieredSharded(7, 5), mb},
		{"single-tier", NewStreamingSharded(7), mc},
	} {
		snap := snaps[0]
		snap.ModelID = v.dst.ID
		if err := v.resumed.RestoreSnapshot(v.dst, snap); err != nil {
			t.Fatalf("%s: restore: %v", v.name, err)
		}
		for _, u := range batch[4:] {
			ub := u
			ub.ModelID = v.dst.ID
			if err := v.resumed.Add(v.dst, ub); err != nil {
				t.Fatalf("%s: add: %v", v.name, err)
			}
		}
		lossB, nB, okB := v.resumed.Finalize(v.dst)
		if lossA != lossB || nA != nB || okA != okB {
			t.Fatalf("%s: finalize (%v,%d,%v) != full (%v,%d,%v)", v.name, lossB, nB, okB, lossA, nA, okA)
		}
		pa, pb := ma.Params(), v.dst.Params()
		for i := range pa {
			for j := range pa[i].Data {
				if pa[i].Data[j] != pb[i].Data[j] {
					t.Fatalf("%s: weights diverge at tensor %d index %d", v.name, i, j)
				}
			}
		}
	}
}

// TestTieredAbortAndDrop pins that Abort/Drop clear every tier: a
// follow-up round folds from zero on all edges and the root.
func TestTieredAbortAndDrop(t *testing.T) {
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
	if tiered.Pending() != 0 {
		t.Fatalf("Pending after Abort = %d", tiered.Pending())
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

	if err := tiered.Add(mb, u); err != nil {
		t.Fatal(err)
	}
	tiered.Drop(mb.ID)
	if tiered.Updates(mb.ID) != 0 || tiered.Pending() != 0 {
		t.Fatal("Drop left tier state behind")
	}
}
