package transform

import (
	"math/rand"
	"testing"

	"fedtrans/internal/model"
	"fedtrans/internal/tensor"
)

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.Alpha != 0.9 {
		t.Errorf("alpha = %v, want 0.9 (Table 7)", c.Alpha)
	}
	if c.Beta != 0.003 {
		t.Errorf("beta = %v, want 0.003 (§5.1)", c.Beta)
	}
	if c.Gamma != 10 {
		t.Errorf("gamma = %v, want 10 (§5.1)", c.Gamma)
	}
	if c.WidenFactor != 2 || c.DeepenCells != 1 {
		t.Errorf("degrees = %v/%v, want 2/1 (§4.1)", c.WidenFactor, c.DeepenCells)
	}
}

func TestDoCNeedsHistory(t *testing.T) {
	d := NewDoCTracker(3, 2)
	for i := 0; i < 4; i++ {
		if _, ok := d.DoC(); ok {
			t.Fatalf("DoC available with %d < gamma+delta observations", i)
		}
		d.Observe(1)
	}
	d.Observe(1)
	if _, ok := d.DoC(); !ok {
		t.Error("DoC should be available with gamma+delta observations")
	}
}

func TestDoCLinearDecay(t *testing.T) {
	// Loss decreasing by 0.1/round: every slope is exactly 0.1.
	d := NewDoCTracker(4, 3)
	for i := 0; i < 10; i++ {
		d.Observe(5 - 0.1*float64(i))
	}
	doc, ok := d.DoC()
	if !ok {
		t.Fatal("DoC unavailable")
	}
	if doc < 0.0999 || doc > 0.1001 {
		t.Errorf("DoC = %v, want 0.1", doc)
	}
}

func TestDoCFlatLoss(t *testing.T) {
	d := NewDoCTracker(3, 2)
	for i := 0; i < 8; i++ {
		d.Observe(1.0)
	}
	doc, _ := d.DoC()
	if doc != 0 {
		t.Errorf("flat loss DoC = %v, want 0", doc)
	}
}

func TestDoCReset(t *testing.T) {
	d := NewDoCTracker(2, 1)
	for i := 0; i < 5; i++ {
		d.Observe(1)
	}
	d.Reset()
	if len(d.losses) != 0 {
		t.Error("Reset did not clear history")
	}
	if _, ok := d.DoC(); ok {
		t.Error("DoC available after reset")
	}
}

func TestDoCIncreasingLossIsNegative(t *testing.T) {
	d := NewDoCTracker(2, 2)
	for i := 0; i < 8; i++ {
		d.Observe(float64(i)) // rising loss
	}
	doc, _ := d.DoC()
	if doc >= 0 {
		t.Errorf("rising loss DoC = %v, want negative", doc)
	}
}

func testModel(t *testing.T) *model.Model {
	t.Helper()
	model.ResetIDs()
	rng := rand.New(rand.NewSource(1))
	return model.Spec{Family: "dense", Input: []int{8}, Hidden: []int{6, 6}, Classes: 3}.Build(rng)
}

func TestActivenessTrackerWindowMean(t *testing.T) {
	m := testModel(t)
	tr := NewActivenessTracker(2)
	tr.Observe(m, []float64{1, 3})
	tr.Observe(m, []float64{3, 5})
	mean := tr.Mean(m)
	if mean[0] != 2 || mean[1] != 4 {
		t.Errorf("window mean = %v", mean)
	}
	tr.Observe(m, []float64{5, 7}) // window slides: (3+5)/2, (5+7)/2
	mean = tr.Mean(m)
	if mean[0] != 4 || mean[1] != 6 {
		t.Errorf("sliding window mean = %v", mean)
	}
}

func TestActivenessTrackerUnknownModel(t *testing.T) {
	m := testModel(t)
	tr := NewActivenessTracker(3)
	mean := tr.Mean(m)
	for _, v := range mean {
		if v != 0 {
			t.Error("unknown cells should report zero activeness")
		}
	}
}

func TestSelectCellsThreshold(t *testing.T) {
	m := testModel(t)
	cfg := DefaultConfig()
	// Cell 1 activeness 1.0, cell 0 activeness 0.85 < 0.9*1.0.
	got := SelectCells(m, []float64{0.85, 1.0}, cfg, rand.New(rand.NewSource(1)))
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("selected = %v, want [1]", got)
	}
	// Both above threshold.
	got = SelectCells(m, []float64{0.95, 1.0}, cfg, rand.New(rand.NewSource(1)))
	if len(got) != 2 {
		t.Errorf("selected = %v, want both cells", got)
	}
}

func TestSelectCellsZeroActivenessFallsBack(t *testing.T) {
	m := testModel(t)
	got := SelectCells(m, []float64{0, 0}, DefaultConfig(), rand.New(rand.NewSource(1)))
	if len(got) != 1 {
		t.Errorf("zero activeness should select one fallback cell, got %v", got)
	}
}

func TestSelectCellsRandomAblation(t *testing.T) {
	m := testModel(t)
	cfg := DefaultConfig()
	cfg.RandomCellSelection = true
	seen := map[int]bool{}
	for seed := int64(0); seed < 20; seed++ {
		got := SelectCells(m, []float64{0, 1}, cfg, rand.New(rand.NewSource(seed)))
		if len(got) != 1 {
			t.Fatalf("random selection must pick exactly one cell, got %v", got)
		}
		seen[got[0]] = true
	}
	if len(seen) < 2 {
		t.Error("random selection never varied across seeds")
	}
}

func TestApplyWidensFirstThenDeepens(t *testing.T) {
	m := testModel(t)
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(2))
	// First transformation of cell 0: widen (WidenedLast=false).
	c1 := Apply(m, []int{0}, cfg, 1, rng)
	if c1.NumCells() != 2 {
		t.Fatalf("widen should not change cell count, got %d", c1.NumCells())
	}
	if c1.ParamCount() <= m.ParamCount() {
		t.Error("widen did not grow parameters")
	}
	// Second transformation of the same cell: deepen (alternation).
	c2 := Apply(c1, []int{0}, cfg, 2, rng)
	if c2.NumCells() != 3 {
		t.Fatalf("deepen should insert a cell, got %d cells", c2.NumCells())
	}
}

func TestApplyPreservesFunction(t *testing.T) {
	m := testModel(t)
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(4, 8)
	x.RandNormal(rng, 1)
	want := m.Forward(x)
	child := Apply(m, []int{0, 1}, DefaultConfig(), 1, rng)
	got := child.Forward(x)
	if !tensor.Equal(want, got, 1e-5) {
		t.Error("Apply (warmup) must preserve the parent function")
	}
	// And the parent must be untouched.
	again := m.Forward(x)
	if !tensor.Equal(want, again, 1e-12) {
		t.Error("Apply mutated the parent model")
	}
}

func TestApplyDisableWarmupChangesFunction(t *testing.T) {
	m := testModel(t)
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(4, 8)
	x.RandNormal(rng, 1)
	want := m.Forward(x)
	cfg := DefaultConfig()
	cfg.DisableWarmup = true
	child := Apply(m, []int{0}, cfg, 1, rng)
	got := child.Forward(x)
	if tensor.Equal(want, got, 1e-6) {
		t.Error("-w ablation should re-initialize weights")
	}
}

func TestApplyDeepenDegree(t *testing.T) {
	m := testModel(t)
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultConfig()
	cfg.DeepenCells = 3
	// Force the deepen path by marking the cell as widened last time.
	c1 := Apply(m, []int{0}, cfg, 1, rng) // widen
	c2 := Apply(c1, []int{0}, cfg, 2, rng)
	if c2.NumCells() != c1.NumCells()+3 {
		t.Errorf("deepen degree 3 should insert 3 cells: %d -> %d", c1.NumCells(), c2.NumCells())
	}
}

func TestApplyMultiSelectionRearOrder(t *testing.T) {
	// Selecting both cells where both get deepened must not corrupt
	// indices (rear-to-front processing).
	m := testModel(t)
	rng := rand.New(rand.NewSource(6))
	cfg := DefaultConfig()
	w := Apply(m, []int{0, 1}, cfg, 1, rng) // widen both
	d := Apply(w, []int{0, 1}, cfg, 2, rng) // deepen both
	if d.NumCells() != 4 {
		t.Errorf("cells = %d, want 4", d.NumCells())
	}
	x := tensor.New(2, 8)
	x.RandNormal(rng, 1)
	if !tensor.Equal(w.Forward(x), d.Forward(x), 1e-9) {
		t.Error("double deepen broke function preservation")
	}
}
