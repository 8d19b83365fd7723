package assign

import (
	"math"
	"math/rand"
	"testing"

	"fedtrans/internal/model"
)

func suite(t *testing.T) []*model.Model {
	t.Helper()
	model.ResetIDs()
	rng := rand.New(rand.NewSource(1))
	m0 := model.Spec{Family: "dense", Input: []int{8}, Hidden: []int{4}, Classes: 3}.Build(rng)
	m1 := m0.Derive(1)
	m1.WidenCell(0, 2, rng)
	m2 := m1.Derive(2)
	m2.WidenCell(0, 2, rng)
	return []*model.Model{m0, m1, m2}
}

func TestCompatibleFiltersByMACs(t *testing.T) {
	s := suite(t)
	all := Compatible(s, math.Inf(1))
	if len(all) != 3 {
		t.Fatalf("unbounded capacity: %d compatible, want 3", len(all))
	}
	some := Compatible(s, s[1].MACsPerSample())
	if len(some) != 2 {
		t.Fatalf("mid capacity: %d compatible, want 2", len(some))
	}
	none := Compatible(s, 0)
	if len(none) != 1 || none[0].ID != s[0].ID {
		t.Fatal("the initial model must always be compatible")
	}
}

func TestSampleRespectsUtilities(t *testing.T) {
	s := suite(t)
	mgr := NewManager(1)
	// Give model 2 a huge utility; sampling should overwhelmingly pick it.
	mgr.ImportUtilities(1, []ClientUtility{{0, map[int]float64{s[2].ID: 50}}})
	rng := rand.New(rand.NewSource(2))
	picks := map[int]int{}
	for i := 0; i < 200; i++ {
		m := mgr.Sample(0, s, rng)
		picks[m.ID]++
	}
	if picks[s[2].ID] < 190 {
		t.Errorf("high-utility model picked only %d/200", picks[s[2].ID])
	}
}

func TestSampleUniformWhenUnexplored(t *testing.T) {
	s := suite(t)
	mgr := NewManager(1)
	rng := rand.New(rand.NewSource(3))
	picks := map[int]int{}
	for i := 0; i < 600; i++ {
		picks[mgr.Sample(0, s, rng).ID]++
	}
	for _, m := range s {
		if picks[m.ID] < 120 { // ~200 expected
			t.Errorf("model %d picked %d/600; expected near-uniform", m.ID, picks[m.ID])
		}
	}
}

func TestSampleEdgeCases(t *testing.T) {
	s := suite(t)
	mgr := NewManager(1)
	rng := rand.New(rand.NewSource(4))
	if mgr.Sample(0, nil, rng) != nil {
		t.Error("no compatible models should give nil")
	}
	if got := mgr.Sample(0, s[:1], rng); got != s[0] {
		t.Error("single compatible model must be returned directly")
	}
}

func TestBestPrefersHighUtility(t *testing.T) {
	s := suite(t)
	mgr := NewManager(1)
	mgr.ImportUtilities(1, []ClientUtility{{0, map[int]float64{s[1].ID: 3, s[2].ID: 1}}})
	if got := mgr.Best(0, s); got != s[1] {
		t.Errorf("Best = model %d, want %d", got.ID, s[1].ID)
	}
	// Ties break toward the earlier (smaller) model.
	mgr2 := NewManager(1)
	if got := mgr2.Best(0, s); got != s[0] {
		t.Error("tie must go to the first compatible model")
	}
}

func TestUpdateJointSpreadsBySimilarity(t *testing.T) {
	s := suite(t)
	mgr := NewManager(1)
	// Client trained s[1] with a high standardized loss (+2): utilities
	// must drop, more for similar models.
	mgr.UpdateJoint(0, s[1], 2, s)
	u := mgr.ExportUtilities()[0].U
	u1, u0 := u[s[1].ID], u[s[0].ID]
	if u1 >= 0 {
		t.Errorf("trained model utility = %v, want negative", u1)
	}
	if u0 >= 0 {
		t.Errorf("similar model utility = %v, want negative", u0)
	}
	if math.Abs(u1) <= math.Abs(u0) {
		t.Error("the trained model (sim=1) must move the most")
	}
	// Negative standardized loss (better than average) raises utility.
	mgr.UpdateJoint(0, s[1], -2, s)
	if mgr.ExportUtilities()[0].U[s[1].ID] != 0 {
		t.Error("symmetric updates should cancel")
	}
}

func TestInheritUtilities(t *testing.T) {
	s := suite(t)
	mgr := NewManager(2)
	mgr.ImportUtilities(2, []ClientUtility{{0, map[int]float64{s[1].ID: 5}}})
	mgr.InheritUtilities(s[1].ID, s[2].ID)
	u := mgr.ExportUtilities()
	if len(u) != 1 || u[0].Client != 0 || u[0].U[s[2].ID] != 5 {
		t.Errorf("child should inherit parent utility: %v", u)
	}
	if mgr.utilities[1] != nil {
		t.Error("clients without parent utility must stay untouched")
	}
}

// TestExportUtilitiesSparse: the export lists exactly the clients with a
// non-empty map, ascending, as copies; an import leaves every other
// client nil and sizes the table as asked.
func TestExportUtilitiesSparse(t *testing.T) {
	s := suite(t)
	mgr := NewManager(6)
	mgr.UpdateJoint(4, s[0], 1, s[:1])
	mgr.UpdateJoint(1, s[0], -1, s[:1])
	mgr.utilities[3] = map[int]float64{} // allocated, holds nothing
	u := mgr.ExportUtilities()
	if len(u) != 2 || u[0].Client != 1 || u[1].Client != 4 {
		t.Fatalf("export = %v, want clients 1 and 4", u)
	}
	u[0].U[s[0].ID] = 99
	if mgr.utilities[1][s[0].ID] == 99 {
		t.Error("export shares a map with the manager")
	}
	back := NewManager(0)
	back.ImportUtilities(8, u)
	if len(back.utilities) != 8 {
		t.Fatalf("imported table covers %d clients, want 8", len(back.utilities))
	}
	for c, m := range back.utilities {
		if (m != nil) != (c == 1 || c == 4) {
			t.Errorf("client %d: map %v after import", c, m)
		}
	}
}

func TestStandardizeLosses(t *testing.T) {
	std := StandardizeLossesInto(nil, []float64{1, 2, 3, 4})
	mean := 0.0
	for _, v := range std {
		mean += v
	}
	if math.Abs(mean) > 1e-12 {
		t.Errorf("standardized mean = %v", mean)
	}
	if std[0] >= 0 || std[3] <= 0 {
		t.Errorf("ordering lost: %v", std)
	}
	// Degenerate cases return zeros.
	for _, in := range [][]float64{nil, {5}, {2, 2, 2}} {
		for _, v := range StandardizeLossesInto(nil, in) {
			if v != 0 {
				t.Errorf("degenerate input %v gave nonzero %v", in, v)
			}
		}
	}
}

func TestStandardizeLossesIntoReusesBuffer(t *testing.T) {
	buf := make([]float64, 0, 8)
	losses := []float64{1, 2, 3, 4}
	got := StandardizeLossesInto(buf, losses)
	want := StandardizeLossesInto(nil, losses)
	if len(got) != len(want) {
		t.Fatalf("len %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Error("sufficient-capacity buffer was not reused")
	}
	// Stale contents must be overwritten on reuse with degenerate input.
	for i := range got {
		got[i] = 99
	}
	again := StandardizeLossesInto(got[:0], []float64{7})
	if len(again) != 1 || again[0] != 0 {
		t.Errorf("degenerate reuse gave %v, want [0]", again)
	}
}

func TestCompatibleIntoReusesBuffer(t *testing.T) {
	s := suite(t)
	buf := make([]*model.Model, 0, 8)
	got := CompatibleInto(buf, s, s[1].MACsPerSample())
	want := Compatible(s, s[1].MACsPerSample())
	if len(got) != len(want) {
		t.Fatalf("len %d != %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("CompatibleInto differs from Compatible")
		}
	}
	if cap(got) != cap(buf) {
		t.Error("sufficient-capacity buffer was not reused")
	}
	// Zero compatible models: an empty suite yields an empty result (the
	// initial-model exemption only applies when a suite exists at all).
	if got := CompatibleInto(buf[:0], nil, 1e12); len(got) != 0 {
		t.Errorf("empty suite gave %d models", len(got))
	}
}

func TestSampleSoftAssignmentExploresAfterBadLoss(t *testing.T) {
	// End-to-end Client Manager behaviour: a client stuck on a model with
	// repeated high loss should start exploring alternatives.
	s := suite(t)
	mgr := NewManager(1)
	for i := 0; i < 10; i++ {
		mgr.UpdateJoint(0, s[2], 1.5, s) // consistently bad on s[2]
	}
	rng := rand.New(rand.NewSource(5))
	picks := map[int]int{}
	for i := 0; i < 300; i++ {
		picks[mgr.Sample(0, s, rng).ID]++
	}
	if picks[s[2].ID] >= picks[s[0].ID] {
		t.Errorf("bad model still dominant: %v", picks)
	}
}

// TestSampleReusesScratch pins Sample at zero allocations once its
// probability scratch has grown to the suite: the round loop calls it
// once per dispatch.
func TestSampleReusesScratch(t *testing.T) {
	s := suite(t)
	mgr := NewManager(2)
	mgr.UpdateJoint(1, s[1], 0.5, s)
	rng := rand.New(rand.NewSource(6))
	mgr.Sample(0, s, rng)
	if a := testing.AllocsPerRun(100, func() {
		mgr.Sample(0, s, rng)
		mgr.Sample(1, s[:2], rng)
	}); a != 0 {
		t.Errorf("Sample: %v allocs a call pair, want 0", a)
	}
}
