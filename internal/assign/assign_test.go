package assign

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
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
	mgr.ImportUtilities([]ClientUtility{{0, []Utility{{s[2].ID, 50}}}})
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
	mgr.ImportUtilities([]ClientUtility{{0, []Utility{{s[1].ID, 3}, {s[2].ID, 1}}}})
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
	u1, u0 := utilityOf(u, s[1].ID), utilityOf(u, s[0].ID)
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
	if utilityOf(mgr.ExportUtilities()[0].U, s[1].ID) != 0 {
		t.Error("symmetric updates should cancel")
	}
}

// utilityOf is model id's utility in one client's exported list.
func utilityOf(u []Utility, id int) float64 {
	for _, e := range u {
		if e.Model == id {
			return e.Value
		}
	}
	return 0
}

func TestInheritUtilities(t *testing.T) {
	s := suite(t)
	mgr := NewManager(2)
	mgr.ImportUtilities([]ClientUtility{{0, []Utility{{s[1].ID, 5}}}})
	mgr.UpdateJoint(1, s[0], 1, s[:1]) // a client without the parent's utility
	mgr.InheritUtilities(s[1].ID, s[2].ID)
	want := []ClientUtility{
		{0, []Utility{{s[1].ID, 5}, {s[2].ID, 5}}},
		{1, []Utility{{s[0].ID, -1}}},
	}
	if u := mgr.ExportUtilities(); !reflect.DeepEqual(u, want) {
		t.Errorf("export after inheriting = %v, want %v: the child copies the parent's utility, and only where one is stored", u, want)
	}
}

// TestExportUtilitiesSparse: the export lists exactly the clients that
// hold a utility, ascending, each with exactly its stored entries —
// a stored 0 included — as copies; an import restores the same table.
func TestExportUtilitiesSparse(t *testing.T) {
	s := suite(t)
	mgr := NewManager(6)
	mgr.UpdateJoint(4, s[0], 1, s[:1])
	mgr.UpdateJoint(1, s[0], 0, s[:1]) // stores a utility of 0
	mgr.UpdateJoint(3, s[0], 1, nil)   // no compatible model: stores nothing
	u := mgr.ExportUtilities()
	want := []ClientUtility{{1, []Utility{{s[0].ID, 0}}}, {4, []Utility{{s[0].ID, -1}}}}
	if !reflect.DeepEqual(u, want) {
		t.Fatalf("export = %v, want %v", u, want)
	}
	u[1].U[0].Value = 99
	if mgr.ExportUtilities()[1].U[0].Value == 99 {
		t.Error("export shares storage with the manager")
	}
	u[1].U[0].Value = -1
	back := NewManager(0)
	back.ImportUtilities(u)
	if got := back.ExportUtilities(); !reflect.DeepEqual(got, want) {
		t.Errorf("export after import = %v, want %v", got, want)
	}
}

// TestExportUtilitiesAllocsPerExport pins ExportUtilities at a fixed
// number of allocations — the client list and the one entry array —
// however many clients hold a utility, once its sort scratch has grown.
func TestExportUtilitiesAllocsPerExport(t *testing.T) {
	s := suite(t)
	for _, trained := range []int{10, 10_000} {
		mgr := NewManager(1_000_000)
		for c := range trained {
			mgr.UpdateJoint(97*c, s[c%3], 0.5, s)
		}
		mgr.InheritUtilities(s[2].ID, 1000)
		mgr.ExportUtilities()
		if a := testing.AllocsPerRun(10, func() { mgr.ExportUtilities() }); a != 2 {
			t.Errorf("%d trained clients: %v allocs an export, want 2", trained, a)
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

// TestInheritUtilitiesCopiesTheColumn: inheriting into a new model
// allocates the child's column and nothing per client, whether 10 or
// 10⁴ clients hold the parent's utility. Each count is the least of
// three tries, so an allocation elsewhere in the process does not count.
func TestInheritUtilitiesCopiesTheColumn(t *testing.T) {
	s := suite(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var counts []uint64
	for _, trained := range []int{10, 10_000} {
		least := uint64(math.MaxUint64)
		for range 3 {
			mgr := NewManager(1_000_000)
			for c := range trained {
				mgr.UpdateJoint(97*c, s[1], 0.5, s)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			mgr.InheritUtilities(s[1].ID, 1000)
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
			if u := mgr.ExportUtilities(); utilityOf(u[trained-1].U, 1000) != utilityOf(u[trained-1].U, s[1].ID) {
				t.Fatalf("%d trained clients: the last one did not inherit: %v", trained, u[trained-1])
			}
		}
		counts = append(counts, least)
	}
	if counts[0] != counts[1] || counts[1] > 4 {
		t.Errorf("inheriting allocated %d objects at 10 trained clients, %d at 10⁴: want the same few", counts[0], counts[1])
	}
}

// mapManager is the utility table as one Go map per client, the layout
// Manager had before its column table: the oracle FuzzManagerMatchesMaps
// holds Manager to. It calls model.Sim on every update.
type mapManager struct {
	utilities []map[int]float64
	probs     []float64
}

func newMapManager(n int) *mapManager {
	return &mapManager{utilities: make([]map[int]float64, n)}
}

func (mg *mapManager) export() []ClientUtility {
	var out []ClientUtility
	for c, u := range mg.utilities {
		if len(u) == 0 {
			continue
		}
		cu := ClientUtility{Client: c}
		for id, v := range u {
			cu.U = append(cu.U, Utility{id, v})
		}
		slices.SortFunc(cu.U, func(a, b Utility) int { return a.Model - b.Model })
		out = append(out, cu)
	}
	return out
}

func (mg *mapManager) importUtilities(list []ClientUtility) {
	clear(mg.utilities)
	for _, cu := range list {
		mg.utilities[cu.Client] = map[int]float64{}
		for _, e := range cu.U {
			mg.utilities[cu.Client][e.Model] = e.Value
		}
	}
}

func (mg *mapManager) sample(c int, compatible []*model.Model, rng *rand.Rand) *model.Model {
	if len(compatible) == 0 {
		return nil
	}
	if len(compatible) == 1 {
		return compatible[0]
	}
	u := mg.utilities[c]
	probs := slices.Grow(mg.probs[:0], len(compatible))[:len(compatible)]
	mg.probs = probs
	maxU := math.Inf(-1)
	for i, m := range compatible {
		v := u[m.ID]
		probs[i] = v
		if v > maxU {
			maxU = v
		}
	}
	sum := 0.0
	for i := range probs {
		probs[i] = math.Exp(probs[i] - maxU)
		sum += probs[i]
	}
	x := rng.Float64() * sum
	acc := 0.0
	for i, p := range probs {
		acc += p
		if x <= acc {
			return compatible[i]
		}
	}
	return compatible[len(compatible)-1]
}

func (mg *mapManager) best(c int, compatible []*model.Model) *model.Model {
	if len(compatible) == 0 {
		return nil
	}
	u := mg.utilities[c]
	best := compatible[0]
	bestU := u[best.ID]
	for _, m := range compatible[1:] {
		if u[m.ID] > bestU {
			best, bestU = m, u[m.ID]
		}
	}
	return best
}

func (mg *mapManager) updateJoint(c int, trained *model.Model, stdLoss float64, compatible []*model.Model) {
	u := mg.utilities[c]
	if u == nil {
		u = make(map[int]float64, len(compatible))
		mg.utilities[c] = u
	}
	for _, mk := range compatible {
		sim := model.Sim(mk, trained)
		if sim <= 0 {
			continue
		}
		u[mk.ID] -= stdLoss * sim
	}
}

func (mg *mapManager) inheritUtilities(parentID, childID int) {
	for _, u := range mg.utilities {
		if v, ok := u[parentID]; ok {
			u[childID] = v
		}
	}
}

// countingSource counts the draws a rand.Rand makes; it hides
// Source64, so every draw goes through Int63.
type countingSource struct {
	src rand.Source
	n   int
}

func (s *countingSource) Int63() int64    { s.n++; return s.src.Int63() }
func (s *countingSource) Seed(seed int64) { s.src.Seed(seed) }

// fuzzSuite is FuzzManagerMatchesMaps' suite: a lineage of three dense
// models (each the previous one widened), a deepened child of the
// second, and an unrelated model, whose similarity to every other is 0.
func fuzzSuite() []*model.Model {
	model.ResetIDs()
	rng := rand.New(rand.NewSource(1))
	spec := model.Spec{Family: "dense", Input: []int{8}, Hidden: []int{4, 4}, Classes: 3}
	m0 := spec.Build(rng)
	m1 := m0.Derive(1)
	m1.WidenCell(0, 2, rng)
	m2 := m1.Derive(2)
	m2.WidenCell(1, 2, rng)
	m3 := m1.Derive(3)
	m3.DeepenCell(0)
	other := spec.Build(rng)
	return []*model.Model{m0, m1, m2, m3, other}
}

// FuzzManagerMatchesMaps runs one random operation sequence against
// Manager and the map-per-client oracle: joint updates over random
// compatible subsets with losses that include 0, inheritance between
// suite models and into models with no utility yet, seeded Sample draws
// (the same model and the same number of draws), Best, and
// export/import round trips. Every export must be equal, stored zeros
// included.
func FuzzManagerMatchesMaps(f *testing.F) {
	suite := fuzzSuite()
	// Two clients, the second storing 0 for two models: the first, which
	// trained one of them only, must not gain the other's entry.
	f.Add([]byte{1, 0, 0, 0, 1, 16, 0, 1, 1, 3, 0})
	f.Add([]byte{5, 0, 1, 2, 31, 8, 4, 0, 1, 3, 4, 0, 2, 2, 7, 1, 1, 2, 5, 3, 1, 0, 9})
	f.Add([]byte{8, 0, 3, 4, 0, 0, 0, 5, 4, 3, 7, 255, 1, 2, 6, 2, 3, 31, 3, 5, 1, 4})
	f.Add([]byte{2, 0, 0, 1, 1, 128, 1, 1, 5, 4, 1, 6, 0, 0, 0, 0, 2, 1, 31, 3, 0, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		n := 1 + int(ops[0]%16)
		ops = ops[1:]
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		// subset draws a compatible list: the suite models of a 5-bit
		// mask, in suite order.
		subset := func() []*model.Model {
			var out []*model.Model
			mask := next()
			for i, m := range suite {
				if mask&(1<<i) != 0 {
					out = append(out, m)
				}
			}
			return out
		}
		// id draws a model ID: a suite model's, or one past the suite.
		id := func() int {
			k := next() % (len(suite) + 2)
			if k < len(suite) {
				return suite[k].ID
			}
			return suite[len(suite)-1].ID + k
		}
		mg, oracle := NewManager(n), newMapManager(n)
		check := func(what string) {
			t.Helper()
			got, want := mg.ExportUtilities(), oracle.export()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("after %s: export\n%v\nwant\n%v", what, got, want)
			}
		}
		for step := 0; len(ops) > 0; step++ {
			switch op := next() % 6; op {
			case 0:
				c, trained, compat := next()%n, suite[next()%len(suite)], subset()
				loss := float64(int8(next())) / 16
				mg.UpdateJoint(c, trained, loss, compat)
				oracle.updateJoint(c, trained, loss, compat)
			case 1:
				parent, child := id(), id()
				mg.InheritUtilities(parent, child)
				oracle.inheritUtilities(parent, child)
			case 2:
				c, compat, seed := next()%n, subset(), int64(next())
				sa, sb := &countingSource{src: rand.NewSource(seed)}, &countingSource{src: rand.NewSource(seed)}
				got := mg.Sample(c, compat, rand.New(sa))
				want := oracle.sample(c, compat, rand.New(sb))
				if got != want || sa.n != sb.n {
					t.Fatalf("step %d: Sample(%d) drew %v in %d draws, want %v in %d", step, c, got, sa.n, want, sb.n)
				}
			case 3:
				c, compat := next()%n, subset()
				if got, want := mg.Best(c, compat), oracle.best(c, compat); got != want {
					t.Fatalf("step %d: Best(%d) = %v, want %v", step, c, got, want)
				}
			case 4:
				check("a sequence")
				u := mg.ExportUtilities()
				mg.ImportUtilities(u)
				oracle.importUtilities(oracle.export())
				check("an export/import round trip")
			case 5:
				fresh := NewManager(n)
				fresh.ImportUtilities(mg.ExportUtilities())
				mg = fresh
				check("an import into a new manager")
			}
		}
		check("the last step")
	})
}
