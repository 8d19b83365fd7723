package selection

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"
)

// numOnline counts the online clients through ActiveInto, the round
// loop's view of the population.
func numOnline(c *Churn) int { return len(c.ActiveInto(nil)) }

func TestChurnDeterministicAndFloored(t *testing.T) {
	cfg := ChurnConfig{JoinRate: 0.3, LeaveRate: 0.4, MinOnline: 5}
	a := NewChurn(20, cfg)
	b := NewChurn(20, cfg)
	rngA := rand.New(rand.NewSource(7))
	rngB := rand.New(rand.NewSource(7))
	sawChurn := false
	for round := 0; round < 50; round++ {
		a.Step(rngA)
		b.Step(rngB)
		if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
			t.Fatalf("round %d: same seed diverged", round)
		}
		if numOnline(a) < cfg.MinOnline {
			t.Fatalf("round %d: online %d below floor %d", round, numOnline(a), cfg.MinOnline)
		}
		if numOnline(a) < 20 {
			sawChurn = true
		}
	}
	if !sawChurn {
		t.Error("no client ever left at LeaveRate 0.4")
	}
}

func TestChurnStepDrawCountFixed(t *testing.T) {
	// Step must consume exactly one draw per client regardless of
	// state transitions: resume determinism depends on the rng position
	// being a function of (round, population) only.
	c := NewChurn(10, ChurnConfig{JoinRate: 0.5, LeaveRate: 0.5})
	rng := rand.New(rand.NewSource(3))
	ref := rand.New(rand.NewSource(3))
	for round := 0; round < 20; round++ {
		c.Step(rng)
		for i := 0; i < 10; i++ {
			ref.Float64()
		}
		if got, want := rng.Int63(), ref.Int63(); got != want {
			t.Fatalf("round %d: rng position diverged", round)
		}
		rng = rand.New(rand.NewSource(3 + int64(round)))
		ref = rand.New(rand.NewSource(3 + int64(round)))
	}
}

func TestChurnActiveIntoSortedOnline(t *testing.T) {
	c := NewChurn(8, ChurnConfig{LeaveRate: 0.5, MinOnline: 2})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5; i++ {
		c.Step(rng)
	}
	act := c.ActiveInto(nil)
	if len(act) != c.n {
		t.Fatalf("ActiveInto len %d != online count %d", len(act), c.n)
	}
	snap := c.Snapshot()
	for i, id := range act {
		if !snap[id] {
			t.Fatalf("ActiveInto returned offline client %d", id)
		}
		if i > 0 && act[i-1] >= id {
			t.Fatalf("ActiveInto not ascending: %v", act)
		}
	}
}

func TestChurnSnapshotRestoreRoundtrip(t *testing.T) {
	cfg := ChurnConfig{JoinRate: 0.2, LeaveRate: 0.3}
	a := NewChurn(15, cfg)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 7; i++ {
		a.Step(rng)
	}
	snap := a.Snapshot()

	b := NewChurn(15, cfg)
	b.RestoreResized(snap, len(snap))
	if b.n != a.n {
		t.Fatalf("restored online count %d != %d", b.n, a.n)
	}
	// Both must evolve identically from the restored state.
	rngA := rand.New(rand.NewSource(40))
	rngB := rand.New(rand.NewSource(40))
	for i := 0; i < 10; i++ {
		a.Step(rngA)
		b.Step(rngB)
		if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
			t.Fatalf("step %d after restore diverged", i)
		}
	}
}

func TestOortSelectFromRestrictsToCandidates(t *testing.T) {
	o := NewOort()
	for c := 0; c < 10; c++ {
		o.Feedback(c, float64(10-c), 1)
	}
	cands := []int{1, 3, 5, 7, 9}
	rng := rand.New(rand.NewSource(2))
	got := o.SelectFrom(0, cands, 3, rng)
	if len(got) != 3 {
		t.Fatalf("selected %d, want 3", len(got))
	}
	allowed := map[int]bool{1: true, 3: true, 5: true, 7: true, 9: true}
	for _, c := range got {
		if !allowed[c] {
			t.Fatalf("selected %d outside candidate set %v", c, cands)
		}
	}
	// With every candidate explored, the exploit share must favor the
	// highest-utility candidate (client 1 has loss 9).
	if got[0] != 1 {
		t.Errorf("top exploit pick = %d, want 1 (highest utility)", got[0])
	}
}

func TestOortStateSnapshotRoundtrip(t *testing.T) {
	a := NewOort()
	for c := 0; c < 6; c++ {
		a.Feedback(c, float64(c)*1.5, float64(c)+0.25)
	}
	a.Feedback(2, 7, 9) // exercise the EMA path
	snap := a.StateSnapshot()
	if string(snap) != string(a.StateSnapshot()) {
		t.Fatal("snapshot not deterministic")
	}

	b := NewOort()
	if err := b.StateRestore(snap); err != nil {
		t.Fatal(err)
	}
	rngA := rand.New(rand.NewSource(5))
	rngB := rand.New(rand.NewSource(5))
	for round := 0; round < 5; round++ {
		sa := a.Select(round, 20, 6, rngA)
		sb := b.Select(round, 20, 6, rngB)
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("round %d: restored selector diverged: %v vs %v", round, sa, sb)
		}
	}

	if err := b.StateRestore([]byte{1, 2}); err == nil {
		t.Error("truncated state accepted")
	}
	if err := b.StateRestore(append(snap, 0xff)); err == nil {
		t.Error("oversized state accepted")
	}
}

func TestRandomSelectFromUniformOverCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cands := []int{2, 4, 6, 8}
	got := Random{}.SelectFrom(0, cands, 2, rng)
	if len(got) != 2 {
		t.Fatalf("selected %d, want 2", len(got))
	}
	for _, c := range got {
		if c%2 != 0 || c < 2 || c > 8 {
			t.Fatalf("selected %d outside candidates", c)
		}
	}
	all := Random{}.SelectFrom(0, cands, 9, rng)
	if !reflect.DeepEqual(all, cands) {
		t.Fatalf("n >= len(candidates) must return all candidates, got %v", all)
	}
}

func TestChurnFloorPopulationAtMinimum(t *testing.T) {
	// A population already sitting exactly at MinOnline must never lose
	// a client, even at LeaveRate 1: every leave draw is suppressed by
	// the floor.
	cfg := ChurnConfig{LeaveRate: 1, MinOnline: 4}
	c := NewChurn(4, cfg)
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 20; round++ {
		c.Step(rng)
		if numOnline(c) != 4 {
			t.Fatalf("round %d: floor-sized population shrank to %d", round, numOnline(c))
		}
	}
	for i, on := range c.Snapshot() {
		if !on {
			t.Fatalf("client %d went offline in a floor-sized population", i)
		}
	}
}

func TestChurnLeaveBurstStopsExactlyAtFloor(t *testing.T) {
	// LeaveRate 1 with no rejoining drains the population in one step —
	// but stops exactly at the floor, never below and never one above.
	cfg := ChurnConfig{LeaveRate: 1, MinOnline: 3}
	c := NewChurn(10, cfg)
	rng := rand.New(rand.NewSource(13))
	c.Step(rng)
	if numOnline(c) != cfg.MinOnline {
		t.Fatalf("leave burst left %d online, want exactly the floor %d", numOnline(c), cfg.MinOnline)
	}
	// Leaves suppress in ascending client order, so the floor keeps the
	// highest-numbered clients (0..6 drained first, then the guard held).
	if got := c.ActiveInto(nil); !reflect.DeepEqual(got, []int{7, 8, 9}) {
		t.Fatalf("survivors = %v, want the last %d clients", got, cfg.MinOnline)
	}
	// Repeated bursts stay pinned at the floor.
	c.Step(rng)
	if numOnline(c) != cfg.MinOnline {
		t.Fatalf("second burst moved the population to %d", numOnline(c))
	}
}

func TestChurnFloorClampedToOne(t *testing.T) {
	// MinOnline 0 (the zero value) is clamped to 1: the coordinator must
	// always have someone to talk to.
	c := NewChurn(5, ChurnConfig{LeaveRate: 1})
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 3; round++ {
		c.Step(rng)
		if numOnline(c) < 1 {
			t.Fatalf("round %d: population fully drained despite the implicit floor", round)
		}
	}
	if numOnline(c) != 1 {
		t.Fatalf("LeaveRate 1 should pin the population at the clamped floor 1, got %d", numOnline(c))
	}
}

func TestChurnRejoinLiftsOffFloor(t *testing.T) {
	// Once drained to the floor, JoinRate 1 restores the full population
	// in one step and the floor no longer suppresses anything relevant.
	cfg := ChurnConfig{LeaveRate: 1, MinOnline: 2}
	c := NewChurn(6, cfg)
	rng := rand.New(rand.NewSource(19))
	c.Step(rng)
	if numOnline(c) != 2 {
		t.Fatalf("drain left %d online, want 2", numOnline(c))
	}
	c.cfg.LeaveRate = 0
	c.cfg.JoinRate = 1
	c.Step(rng)
	if numOnline(c) != 6 {
		t.Fatalf("full rejoin brought %d online, want 6", numOnline(c))
	}
}

// TestOortStateGoldenBytes pins the selector-state blob absolutely: a
// u32 count, then per client in ascending order u32 client | f64
// utility | f64 duration. The feedback values (and the one EMA step,
// 0.5·1.5 + 0.5·2.5) are exact in binary, so the bytes hold on every
// architecture; the committed bytes restore and snapshot to themselves.
func TestOortStateGoldenBytes(t *testing.T) {
	const golden = "00000003" +
		"00000002" + "4000000000000000" + "4010000000000000" + // 2: 1.5↔2.5 → 2, 3↔5 → 4
		"00000007" + "3fe0000000000000" + "4021000000000000" + // 7: 0.5, 8.5
		"00010000" + "c004000000000000" + "3fd0000000000000" //  65536: -2.5, 0.25
	o := NewOort()
	o.Feedback(65536, -2.5, 0.25)
	o.Feedback(2, 1.5, 3)
	o.Feedback(7, 0.5, 8.5)
	o.Feedback(2, 2.5, 5)
	if got := hex.EncodeToString(o.StateSnapshot()); got != golden {
		t.Fatalf("Oort state encoding moved:\n got %s\nwant %s", got, golden)
	}
	want, _ := hex.DecodeString(golden)
	back := NewOort()
	if err := back.StateRestore(want); err != nil {
		t.Fatalf("golden state does not restore: %v", err)
	}
	if got := back.StateSnapshot(); !bytes.Equal(got, want) {
		t.Fatalf("restore → snapshot of the golden state is not the identity: %x", got)
	}
}
