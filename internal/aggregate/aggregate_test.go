package aggregate

import (
	"math"
	"math/rand"
	"testing"

	"fedtrans/internal/model"
	"fedtrans/internal/tensor"
)

func newModel(t *testing.T, hidden ...int) *model.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	return model.Spec{Family: "dense", Input: []int{4}, Hidden: hidden, Classes: 2}.Build(rng)
}

func constantWeights(m *model.Model, v tensor.Float) []*tensor.Tensor {
	w := m.CopyWeights()
	for _, t := range w {
		t.Fill(v)
	}
	return w
}

// FedAvg folds a whole batch of updates through one StreamingFedAvg in
// slice order: dst's weights become their sample-weighted average. With
// no updates it leaves dst unchanged and returns ok=false; a malformed
// update panics.
func FedAvg(dst *model.Model, updates []Update) (meanLoss float64, samples int, ok bool) {
	if len(updates) == 0 {
		return 0, 0, false
	}
	s := NewStreaming()
	for _, u := range updates {
		if err := s.Add(dst, u); err != nil {
			panic(err)
		}
	}
	return s.Finalize(dst)
}

func TestFedAvgWeightsBySamples(t *testing.T) {
	model.ResetIDs()
	m := newModel(t, 3)
	u1 := Update{ModelID: m.ID, Weights: constantWeights(m, 1), Samples: 1, Loss: 2}
	u2 := Update{ModelID: m.ID, Weights: constantWeights(m, 4), Samples: 3, Loss: 4}
	meanLoss, n, ok := FedAvg(m, []Update{u1, u2})
	if !ok || n != 4 {
		t.Fatalf("ok=%v n=%d", ok, n)
	}
	// Weighted weight mean: (1*1 + 4*3)/4 = 3.25.
	for _, p := range m.Params() {
		for _, v := range p.Data {
			if math.Abs(float64(v)-3.25) > 1e-12 {
				t.Fatalf("weight = %v, want 3.25", v)
			}
		}
	}
	// Weighted loss mean: (2*1 + 4*3)/4 = 3.5.
	if math.Abs(meanLoss-3.5) > 1e-12 {
		t.Errorf("meanLoss = %v, want 3.5", meanLoss)
	}
}

func TestFedAvgNoUpdatesLeavesModel(t *testing.T) {
	model.ResetIDs()
	m := newModel(t, 3)
	before := m.CopyWeights()
	_, _, ok := FedAvg(m, nil)
	if ok {
		t.Error("ok should be false with no updates")
	}
	after := m.Params()
	for i := range after {
		if !tensor.Equal(before[i], after[i], 0) {
			t.Fatal("model mutated with no updates")
		}
	}
}

func TestFedAvgZeroSampleGuard(t *testing.T) {
	model.ResetIDs()
	m := newModel(t, 3)
	u := Update{ModelID: m.ID, Weights: constantWeights(m, 2), Samples: 0, Loss: 1}
	_, n, ok := FedAvg(m, []Update{u})
	if !ok || n != 1 {
		t.Errorf("zero-sample update should count as weight 1, got n=%d", n)
	}
}

func lineageSuite(t *testing.T) []*model.Model {
	t.Helper()
	model.ResetIDs()
	rng := rand.New(rand.NewSource(2))
	m0 := model.Spec{Family: "dense", Input: []int{4}, Hidden: []int{3}, Classes: 2}.Build(rng)
	m1 := m0.Derive(1)
	m1.WidenCell(0, 2, rng)
	return []*model.Model{m0, m1}
}

func TestSoftAggregateSingleModelNoop(t *testing.T) {
	s := lineageSuite(t)[:1]
	before := s[0].CopyWeights()
	SoftAggregate(s, 3, DefaultSoftConfig())
	for i, p := range s[0].Params() {
		if !tensor.Equal(before[i], p, 0) {
			t.Fatal("single-model suite must be untouched")
		}
	}
}

func TestSoftAggregateSmallToLargeOnly(t *testing.T) {
	s := lineageSuite(t)
	small0 := s[0].CopyWeights()
	SoftAggregate(s, 0, DefaultSoftConfig())
	// With l2s disabled, model 0 (the smallest) only receives itself:
	// unchanged.
	for i, p := range s[0].Params() {
		if !tensor.Equal(small0[i], p, 1e-7) {
			t.Fatal("l2s disabled but small model changed")
		}
	}
}

func TestSoftAggregateL2SChangesSmallModel(t *testing.T) {
	s := lineageSuite(t)
	small0 := s[0].CopyWeights()
	cfg := DefaultSoftConfig()
	cfg.AllowL2S = true
	SoftAggregate(s, 0, cfg)
	changed := false
	for i, p := range s[0].Params() {
		if !tensor.Equal(small0[i], p, 1e-7) {
			changed = true
			_ = i
		}
	}
	if !changed {
		t.Error("l2s enabled but small model unchanged")
	}
}

func TestSoftAggregateLargeBorrowsFromSmall(t *testing.T) {
	s := lineageSuite(t)
	large0 := s[1].CopyWeights()
	SoftAggregate(s, 0, DefaultSoftConfig())
	changed := false
	for i, p := range s[1].Params() {
		if !tensor.Equal(large0[i], p, 1e-7) {
			changed = true
		}
	}
	if !changed {
		t.Error("large model did not borrow from its parent")
	}
}

func TestSoftAggregateDecayReducesBorrowing(t *testing.T) {
	// At a late round, eta^t is tiny so the large model barely moves; at
	// round 0 it moves more.
	early := lineageSuite(t)
	late := lineageSuite(t)
	// Make suites identical weight-wise.
	for i, p := range late[0].Params() {
		copy(p.Data, early[0].Params()[i].Data)
	}
	for i, p := range late[1].Params() {
		copy(p.Data, early[1].Params()[i].Data)
	}
	ref := early[1].CopyWeights()
	SoftAggregate(early, 0, DefaultSoftConfig())
	SoftAggregate(late, 400, DefaultSoftConfig())
	moveEarly, moveLate := 0.0, 0.0
	for i, p := range early[1].Params() {
		for j := range p.Data {
			moveEarly += math.Abs(float64(p.Data[j] - ref[i].Data[j]))
		}
	}
	for i, p := range late[1].Params() {
		for j := range p.Data {
			moveLate += math.Abs(float64(p.Data[j] - ref[i].Data[j]))
		}
	}
	if moveLate >= moveEarly {
		t.Errorf("decay not applied: early move %.4f, late move %.4f", moveEarly, moveLate)
	}
	if moveLate > 1e-2 {
		t.Errorf("late-round borrowing should be negligible (eta^400), got %.3g", moveLate)
	}
}

func TestSoftAggregateDisableDecay(t *testing.T) {
	a := lineageSuite(t)
	b := lineageSuite(t)
	for i, p := range b[0].Params() {
		copy(p.Data, a[0].Params()[i].Data)
	}
	for i, p := range b[1].Params() {
		copy(p.Data, a[1].Params()[i].Data)
	}
	cfgA := DefaultSoftConfig()
	cfgB := DefaultSoftConfig()
	cfgB.DisableDecay = true
	SoftAggregate(a, 400, cfgA)
	SoftAggregate(b, 400, cfgB)
	// With decay disabled, late rounds still borrow: b must differ from a.
	diff := 0.0
	for i, p := range a[1].Params() {
		for j := range p.Data {
			diff += math.Abs(float64(p.Data[j] - b[1].Params()[i].Data[j]))
		}
	}
	if diff < 1e-9 {
		t.Error("-d ablation had no effect at a late round")
	}
}

func TestCropAddOverlap(t *testing.T) {
	src := tensor.FromSlice([]tensor.Float{
		1, 2,
		3, 4,
	}, 2, 2)
	dst := tensor.New(3, 3)
	dst.Fill(10)
	acc := make([]float64, 9)
	cropAdd(acc, src, dst, 1)
	// Overlap (2x2) takes src values; the rest keeps dst values.
	want := []float64{1, 2, 10, 3, 4, 10, 10, 10, 10}
	for i := range want {
		if math.Abs(acc[i]-want[i]) > 1e-12 {
			t.Fatalf("acc = %v, want %v", acc, want)
		}
	}
}

// TestCropAddRank4WidenBitExact pins cropAdd on the shape a conv widen
// produces — a 3×3 kernel whose source is smaller on the two channel
// axes — to the last bit: acc += float64(v)·weight, the source over the
// overlap and the destination's own value outside it.
func TestCropAddRank4WidenBitExact(t *testing.T) {
	src, dst := tensor.New(2, 1, 3, 3), tensor.New(3, 2, 3, 3)
	for i := range src.Data {
		src.Data[i] = tensor.Float(i+1) / 7
	}
	for i := range dst.Data {
		dst.Data[i] = -tensor.Float(i+1) / 11
	}
	acc := make([]float64, dst.Len())
	for i := range acc {
		acc[i] = 1.0 / 3
	}
	cropAdd(acc, src, dst, 0.3)
	want := []float64{
		0.37619047810633977, 0.41904762287934616, 0.46190476318200424, 0.5047619124253591, 0.5476190527280171, 0.5904761930306752, 0.6333333333333333, 0.6761904915173849, 0.7190476139386495,
		0.06060605247815448, 0.033333333333333326, 0.0060605963071187485, -0.021212104956308986, -0.04848484198252362, -0.0757575790087382, -0.10303031603495283, -0.1303030172983805, -0.15757575432459514,
		0.761904772122701, 0.8047618945439656, 0.8476190527280172, 0.8904761751492818, 0.9333333333333333, 0.976190455754598, 1.0190476497014362, 1.061904772122701, 1.1047618945439657,
		-0.43030301729838055, -0.457575790087382, -0.4848484913508097, -0.5121211926142375, -0.5393939654032389, -0.5666666666666667, -0.5939393679300944, -0.6212121407190958, -0.6484848419825235,
		-0.6757575432459513, -0.7030303160349529, -0.7303030172983807, -0.7575757900873821, -0.7848484913508098, -0.8121211926142375, -0.839393965403239, -0.8666666666666667, -0.8939393679300944,
		-0.9212120691935222, -0.9484849135080973, -0.975757614771525, -1.0030303160349527, -1.0303030172983805, -1.0575757185618082, -1.084848419825236, -1.1121212641398113, -1.139393965403239,
	}
	for i := range want {
		if acc[i] != want[i] {
			t.Fatalf("acc[%d] = %v, want %v", i, acc[i], want[i])
		}
	}
}

func TestSoftAggregatePreservesShapes(t *testing.T) {
	s := lineageSuite(t)
	shapes := make([][]int, 0)
	for _, m := range s {
		for _, p := range m.Params() {
			shapes = append(shapes, append([]int(nil), p.Shape...))
		}
	}
	SoftAggregate(s, 5, DefaultSoftConfig())
	i := 0
	for _, m := range s {
		for _, p := range m.Params() {
			for ax := range p.Shape {
				if p.Shape[ax] != shapes[i][ax] {
					t.Fatal("soft aggregation changed a tensor shape")
				}
			}
			i++
		}
	}
}

func TestSoftAggregateAlignsAcrossDeepen(t *testing.T) {
	// Regression: after a deepen insertion, the parent's cell-k weights
	// must flow to the child's *matching* cell (by ancestry), never into
	// the inserted identity cell.
	model.ResetIDs()
	rng := rand.New(rand.NewSource(7))
	parent := model.Spec{Family: "dense", Input: []int{4}, Hidden: []int{3, 3}, Classes: 2}.Build(rng)
	child := parent.Derive(1)
	child.DeepenCell(0) // cells: [0] inherited, [1] inserted, [2] inherited
	insertedBefore := child.Cells[1].Cell.Params()[0].Clone()
	// Make the parent's weights distinctive.
	for _, p := range parent.Params() {
		p.Fill(7)
	}
	cfg := DefaultSoftConfig()
	cfg.DisableDecay = true // maximal cross-model flow
	SoftAggregate([]*model.Model{parent, child}, 0, cfg)
	// The inserted cell shares no ancestry with the parent: its weights
	// must be exactly what they were (own-weight contributions cancel in
	// the normalization).
	insertedAfter := child.Cells[1].Cell.Params()[0]
	if !tensor.Equal(insertedBefore, insertedAfter, 1e-9) {
		t.Error("parent weights leaked into the inserted identity cell")
	}
	// The inherited trailing cell (ancestry-matched to parent's cell 1)
	// must have moved toward 7.
	trailing := child.Cells[2].Cell.Params()[0]
	moved := false
	for _, v := range trailing.Data {
		if v > 1 { // random init is ~N(0, 0.6); 7-pull is unmistakable
			moved = true
		}
	}
	if !moved {
		t.Error("inherited trailing cell did not borrow from its ancestor")
	}
}

// TestSoftAggregateWritesInPlace pins that soft aggregation reads the
// live suite and writes every mean into the buffer it read: on a suite
// that shares no buffer, no parameter moves or ends up shared, and a
// call allocates only its sums and Sim's parameter counts.
func TestSoftAggregateWritesInPlace(t *testing.T) {
	s := lineageSuite(t)
	var data []*tensor.Float
	for _, m := range s {
		for _, p := range m.Params() {
			p.EnsureOwned() // the child shares its parent's untouched tensors
			data = append(data, &p.Data[0])
		}
	}
	allocs := testing.AllocsPerRun(10, func() { SoftAggregate(s, 1, DefaultSoftConfig()) })
	i := 0
	for _, m := range s {
		for n, p := range m.Params() {
			if &p.Data[0] != data[i] || p.Shared() {
				t.Errorf("model %d parameter %d: moved %v, shared %v", m.ID, n, &p.Data[0] != data[i], p.Shared())
			}
			i++
		}
	}
	t.Logf("%.0f allocations a call", allocs)
	if allocs > 14 {
		t.Errorf("SoftAggregate allocates %.0f objects a call, ceiling 14", allocs)
	}
}
