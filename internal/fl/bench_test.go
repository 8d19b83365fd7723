package fl

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"fedtrans/internal/assign"
	"fedtrans/internal/chaos"
	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/model"
	"fedtrans/internal/nn"
	"fedtrans/internal/tensor"
)

func benchRuntime(profile string) *Runtime {
	ds := data.Generate(data.Config{Profile: profile, Clients: 24, Heterogeneity: 1, Seed: 1})
	var spec model.Spec
	if profile == "cifar10" {
		spec = model.MobileNetLikeSpec(ds.InputShape[0], ds.InputShape[1], ds.InputShape[2], ds.Classes)
	} else {
		spec = model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes)
	}
	base := spec.Build(rand.New(rand.NewSource(0))).MACsPerSample()
	tr := device.NewTrace(device.TraceConfig{
		N: 24, MinCapacityMACs: base, MaxCapacityMACs: base * 32, Seed: 101,
	})
	cfg := DefaultConfig()
	cfg.Rounds = 3
	return New(cfg, ds, tr, spec)
}

// BenchmarkRoundLoop measures one full streaming round — selection,
// assignment, parallel local training, clip, accumulator folding,
// finalize, utility updates — at increasing participants per round over
// a fixed dataset and suite. The headline claim is the B/op column: with
// the streaming accumulator and pooled sessions/upload buffers,
// round allocation no longer scales with ClientsPerRound (the buffered
// loop retained every participant's full weight tensors), so the 1000-
// client round must stay within ~2× of the 100-client round's B/op.
func BenchmarkRoundLoop(b *testing.B) {
	for _, arm := range loopArms {
		b.Run(arm.name, func(b *testing.B) {
			rt, round := roundLoopRuntime(arm.cpr, 0, arm.models)
			var res Result
			rt.runRound(round, &res) // warm pools, sessions, accumulators
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.runRound(round+i+1, &res)
			}
		})
	}
	// Generative variant: the same round shape at 10000 participants
	// drawn from a 100000-client synthesized population. Server state is
	// O(active), so B/op must stay flat per participant versus the
	// materialized sub-benchmarks, and setup (GenerateLazy/NewTraceLazy)
	// is population-independent.
	b.Run("gen-clients=10000", func(b *testing.B) {
		model.ResetIDs()
		ds := data.GenerateLazy(data.Config{
			Profile: "scale", Clients: 100_000, Heterogeneity: 1,
			MinSamples: 8, MaxSamples: 16, TestSamples: 8, Seed: 1,
		})
		spec := model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes)
		base := spec.Build(rand.New(rand.NewSource(0))).MACsPerSample()
		tr := device.NewTraceLazy(device.TraceConfig{
			N: 100_000, MinCapacityMACs: base, MaxCapacityMACs: base * 32, Seed: 101,
		})
		cfg := DefaultConfig()
		cfg.ClientsPerRound = 10_000
		cfg.Local = LocalConfig{Steps: 2, BatchSize: 8, LR: 0.05}
		cfg.DisableTransform = true // fixed suite across iterations
		cfg.ConvergePatience = 0
		rt := New(cfg, ds, tr, spec)
		var res Result
		rt.runRound(0, &res) // warm pools, sessions, accumulators
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.runRound(i+1, &res)
		}
	})
}

// BenchmarkEvaluateAll measures the parallel all-client evaluation that
// runs every EvalEvery rounds and at convergence.
func BenchmarkEvaluateAll(b *testing.B) {
	rt := benchRuntime("cifar10")
	rt.Run() // warm: train a few rounds so the suite is realistic
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.EvaluateAll()
	}
}

// BenchmarkLocalTrainStep measures one SGD step of the conv model — the
// training inner loop. Steady-state steps reuse pooled workspaces, so
// allocs/op should stay near zero.
func BenchmarkLocalTrainStep(b *testing.B) {
	rt := benchRuntime("cifar10")
	m := rt.Suite()[0].Clone()
	defer m.ReleaseWorkspaces()
	cl := &rt.ds.Clients[0]
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultLocalConfig()
	opt := nn.NewSGD(cfg.LR)
	idx := make([]int, cfg.BatchSize)
	for i := range idx {
		idx[i] = rng.Intn(len(cl.TrainY))
	}
	bx, by := data.Batch(cl.TrainX, cl.TrainY, idx)
	m.TrainStep(bx, by, opt) // warm the workspaces
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainStep(bx, by, opt)
	}
}

// TestTrainStepAllocationRegression pins the allocation-free training
// inner loop: after workspace warmup (which also unshares the clone's
// COW weight buffers and materializes its lazy gradients), one SGD step
// of the conv model must allocate at most once per step — everything
// tensor-sized is pooled or owned, and since ZeroGrads started walking
// the cached grad slice the steady state measures zero.
func TestTrainStepAllocationRegression(t *testing.T) {
	rt := benchRuntime("cifar10")
	m := rt.Suite()[0].Clone()
	defer m.ReleaseWorkspaces()
	cl := &rt.ds.Clients[0]
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultLocalConfig()
	opt := nn.NewSGD(cfg.LR)
	idx := make([]int, cfg.BatchSize)
	for i := range idx {
		idx[i] = rng.Intn(len(cl.TrainY))
	}
	bx, by := data.Batch(cl.TrainX, cl.TrainY, idx)
	m.TrainStep(bx, by, opt) // warm the workspaces
	allocs := testing.AllocsPerRun(20, func() {
		m.TrainStep(bx, by, opt)
	})
	if allocs > 1 {
		t.Errorf("TrainStep allocates %.1f times per step, want <= 1", allocs)
	}
}

// BenchmarkAsyncRoundLoop measures one staleness-bounded asynchronous
// round — top-up selection by rank over the clients not in flight, shared
// version snapshots, background training through par.TaskStream,
// arrival-ordered staleness-discounted folding, and the virtual-clock
// advance — at increasing commit budgets. Run it next to the synchronous
// BenchmarkRoundLoop to see what the asynchronous policy costs over
// sync on the one round engine.
func BenchmarkAsyncRoundLoop(b *testing.B) {
	for _, arm := range loopArms {
		b.Run(arm.name, func(b *testing.B) {
			rt, round := roundLoopRuntime(arm.cpr, 2, arm.models)
			var res Result
			rt.runRound(round, &res) // warm pools, sessions, the in-flight set
			rt.runRound(round+1, &res)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.runRound(round+i+2, &res)
			}
			b.StopTimer()
			rt.drain()
		})
	}
}

// loopArms are the round-loop benchmarks' shapes: a one-model suite,
// where Manager.Sample returns before its softmax and one accumulator
// folds, at 100 and 1000 participants, and a three-model suite at 1000.
var loopArms = []struct {
	name        string
	cpr, models int
}{{"clients=100", 100, 1}, {"clients=1000", 1000, 1}, {"clients=1000,models=3", 1000, 3}}

// roundLoopRuntime is the round-loop benchmarks' runtime: a "scale"
// population of 1200 clients (2400 when asynchronous), cpr participants
// a round, two local steps. Its suite is grown to models models, one
// transformation after each round from round 0 on, then frozen; it
// returns the runtime and the round to run next.
func roundLoopRuntime(cpr, maxStaleness, models int) (*Runtime, int) {
	n := 1200
	if maxStaleness > 0 {
		n = 2400
	}
	rt := loopRuntime(n, false, cpr, maxStaleness)
	var res Result
	round := 0
	for len(rt.suite) < models {
		if round == 8 {
			panic(fmt.Sprintf("round loop suite stuck at %d models", len(rt.suite)))
		}
		rt.runRound(round, &res)
		rt.tryTransform(round)
		round++
	}
	return rt, round
}

// loopRuntime builds roundLoopRuntime's runtime over n clients,
// materialized or, when lazy, generative: clients and devices are
// synthesized on demand, so what building it allocates stops growing
// with n at the number of clients the run can train.
func loopRuntime(n int, lazy bool, cpr, maxStaleness int) *Runtime {
	model.ResetIDs()
	dcfg := data.Config{
		Profile: "scale", Clients: n, Heterogeneity: 1,
		MinSamples: 8, MaxSamples: 16, TestSamples: 8, Seed: 1,
	}
	var ds *data.Dataset
	if lazy {
		ds = data.GenerateLazy(dcfg)
	} else {
		ds = data.Generate(dcfg)
	}
	spec := model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes)
	base := spec.Build(rand.New(rand.NewSource(0))).MACsPerSample()
	tcfg := device.TraceConfig{
		N: n, MinCapacityMACs: base, MaxCapacityMACs: base * 32, Seed: 101,
	}
	var tr *device.Trace
	if lazy {
		tr = device.NewTraceLazy(tcfg)
	} else {
		tr = device.NewTrace(tcfg)
	}
	cfg := DefaultConfig()
	cfg.ClientsPerRound = cpr
	cfg.MaxStaleness = maxStaleness
	cfg.Local = LocalConfig{Steps: 2, BatchSize: 8, LR: 0.05}
	cfg.DisableTransform = true // fixed suite across iterations
	cfg.ConvergePatience = 0
	return New(cfg, ds, tr, spec)
}

// TestRoundLoopAllocationRegression pins the steady-state allocations of
// one synchronous and one asynchronous round at 100 and 1000
// participants over a one-model suite: every per-participant record,
// buffer and session is pooled, and every dispatch of a model version
// shares one snapshot, re-armed in place from its ring slot, so a round
// allocates per-round bookkeeping (the selection, the per-model counts,
// the Finalize copies) and little more. Its three-model arms, at 1000,
// also run Sample's softmax for every participant with more than one
// compatible model and fold into several accumulators. A joint-utility
// update allocates nothing once its client has a row: the Manager
// computes model.Sim once per model pair and writes the row in place,
// and soft aggregation sums every model from the live suite, with no
// snapshot of its own, and model.Sim counts parameters through the
// cached CellParams. The ceilings are the counts measured once Sim
// stopped allocating per matched cell.
func TestRoundLoopAllocationRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 1000-participant rounds")
	}
	// AllocsPerRun measures at GOMAXPROCS 1; warming up there too keeps a
	// background worker from carrying timing-dependent state into it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		cpr, staleness, models int
		ceiling                float64
	}{
		{100, 0, 1, 21}, {1000, 0, 1, 21}, {1000, 0, 3, 85},
		{100, 2, 1, 21}, {1000, 2, 1, 21}, {1000, 2, 3, 85},
	} {
		rt, round := roundLoopRuntime(c.cpr, c.staleness, c.models)
		var res Result
		folded := 0
		next := func() {
			_, _, perModel, _ := rt.runRound(round, &res)
			folded = len(perModel)
			round++
		}
		next() // warm pools, sessions, accumulators and the in-flight set
		next()
		if folded < c.models {
			t.Fatalf("participants %d, staleness %d: a round folded into %d of %d models", c.cpr, c.staleness, folded, c.models)
		}
		allocs := testing.AllocsPerRun(4, next)
		rt.drain()
		t.Logf("participants %d, staleness %d, %d models: %.1f allocs a round", c.cpr, c.staleness, c.models, allocs)
		if allocs > c.ceiling {
			t.Errorf("participants %d, staleness %d, %d models: %.1f allocs a round, ceiling %.0f", c.cpr, c.staleness, c.models, allocs, c.ceiling)
		}
	}
}

// TestAsyncSnapshotsSharedPerVersion pins the version snapshots' sharing
// and their balance, synchronous (s = 0) and asynchronous (s = 2), over a
// three-model suite. Every attempt of one model version trains from one
// snapshot, never the live model, holding the weights the version was
// dispatched with. The flights in flight hold at most models×(s+1)
// snapshots, each one a slot of its model's ring, and each slot's refs
// counts exactly the flights that hold it; a slot nobody holds keeps no
// buffer. After drain every slot is unreferenced and bufferless, and no
// live parameter is shared. Crashes make the consumer retry attempts from
// their snapshots after later versions were dispatched, and stragglers
// keep flights in flight for the whole staleness bound. The resumed arm
// restores a mid-run checkpoint into a fresh runtime first: its Snaps
// hold exactly the (model, version) pairs in flight, and the restored
// flights hold ring slots like dispatched ones.
func TestAsyncSnapshotsSharedPerVersion(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 1000-participant rounds")
	}
	for _, arm := range []struct {
		name    string
		s       int
		resumed bool
	}{{"staleness 0", 0, false}, {"staleness 2", 2, false}, {"staleness 2, resumed", 2, true}} {
		s := arm.s
		rt, round := roundLoopRuntime(1000, s, 3)
		rec := &srcRecorder{srcs: make(map[[2]int]map[*model.Model]uint64)}
		faults := chaos.New(chaos.Config{Seed: 3, CrashRate: 0.2, StragglerRate: 0.2, StragglerDelay: 100})
		want := make(map[[2]int]uint64) // (version, model ID) → weight digest at dispatch
		models := len(rt.suite)
		check := func() {
			t.Helper()
			holders := make(map[*snapSlot]int)
			for _, f := range rt.inflight {
				holders[f.slot.snap]++
				if d, ok := want[[2]int{f.version, f.slot.m.ID}]; ok && weightDigest(f.slot.snap.m) != d {
					t.Fatalf("%s: a flight of version %d holds other weights", arm.name, f.version)
				}
			}
			if len(holders) > models*(s+1) {
				t.Errorf("%s: %d snapshots in flight, want at most %d", arm.name, len(holders), models*(s+1))
			}
			checkSlots(t, rt, holders)
		}
		if arm.resumed {
			rt = restoredLoop(t, rt, round, rec, faults, want)
			check()
		} else {
			rt.drain() // no task may run while the test swaps its trainer and faults in
			rt.cfg.Trainer, rt.cfg.RetryBudget, rt.chaos = rec, 2, faults
		}
		var res Result
		for range 6 {
			for _, m := range rt.suite {
				want[[2]int{round, m.ID}] = weightDigest(m)
			}
			rt.runRound(round, &res)
			round++
			check()
		}
		rt.drain()
		checkSlots(t, rt, nil)
		for _, m := range rt.suite {
			for i, p := range m.Params() {
				if p.Shared() {
					t.Errorf("%s: model %d parameter %d is still shared after drain", arm.name, m.ID, i)
				}
			}
		}
		for k, srcs := range rec.srcs {
			d, ok := want[k]
			if !ok {
				continue // dispatched before the checked rounds
			}
			for src, got := range srcs {
				if len(srcs) > 1 || got != d || slices.Contains(rt.suite, src) {
					t.Fatalf("%s: version %d of model %d trained from %d sources, digest %x (want %x), live %v",
						arm.name, k[0], k[1], len(srcs), got, d, slices.Contains(rt.suite, src))
				}
			}
		}
	}
}

// restoredLoop checkpoints rt, which has run round rounds and has
// dispatches in flight, and restores the checkpoint into a fresh runtime
// that trains with rec under faults. It records each in-flight version's
// dispatch digest in want, checks that the checkpoint's Snaps are the
// distinct (model, version) pairs in flight and that the restored suite
// holds rt's weights, and drains rt.
func restoredLoop(t *testing.T, rt *Runtime, round int, rec Trainer, faults *chaos.Injector, want map[[2]int]uint64) *Runtime {
	t.Helper()
	pairs := make(map[[2]int]bool)
	for _, f := range rt.inflight {
		want[[2]int{f.version, f.slot.m.ID}] = weightDigest(f.slot.snap.m)
		pairs[[2]int{f.slot.m.ID, f.version}] = true
	}
	blob, err := rt.snapshot(round).encode()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Inflight) == 0 || len(ck.Snaps) != len(pairs) {
		t.Fatalf("checkpoint of %d flights holds %d snapshots, %d (model, version) pairs in flight", len(ck.Inflight), len(ck.Snaps), len(pairs))
	}
	for _, sn := range ck.Snaps {
		if !pairs[[2]int{sn.ModelID, sn.Version}] {
			t.Fatalf("checkpoint holds a snapshot of model %d at version %d, which no flight trains", sn.ModelID, sn.Version)
		}
	}
	fresh := loopRuntime(2400, false, 1000, 2)
	fresh.cfg.Trainer, fresh.cfg.RetryBudget, fresh.chaos = rec, 2, faults
	if err := fresh.Restore(blob); err != nil {
		t.Fatal(err)
	}
	for i, m := range fresh.suite {
		if weightDigest(m) != weightDigest(rt.suite[i]) {
			t.Fatalf("restored model %d holds other weights than the checkpointed one", m.ID)
		}
	}
	rt.drain()
	return fresh
}

// checkSlots asserts that each ring slot's refs is its number of holders,
// that every holder is a ring slot, and that a slot nobody holds keeps no
// parameter buffer.
func checkSlots(t *testing.T, rt *Runtime, holders map[*snapSlot]int) {
	t.Helper()
	inRings := 0
	for id, ring := range rt.snaps {
		for k := range ring {
			sl := &ring[k]
			if sl.refs != holders[sl] {
				t.Fatalf("model %d slot %d: refs %d, held by %d flights", id, k, sl.refs, holders[sl])
			}
			if sl.refs > 0 {
				inRings++
			}
			if sl.refs > 0 || sl.m == nil {
				continue
			}
			for i, p := range sl.m.Params() {
				if p.Data != nil {
					t.Fatalf("model %d slot %d: unreferenced, but parameter %d keeps its buffer", id, k, i)
				}
			}
		}
	}
	if inRings != len(holders) {
		t.Fatalf("%d of the %d snapshots in flight lie outside their model's ring", len(holders)-inRings, len(holders))
	}
}

// weightDigest is an FNV-1a hash of m's parameter bits.
func weightDigest(m *model.Model) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range m.Params() {
		for _, v := range p.Data {
			h = (h ^ uint64(math.Float32bits(float32(v)))) * 1099511628211
		}
	}
	return h
}

// srcRecorder is a Trainer that records, by (version, model ID), each
// model an attempt trained from and its weight digest, and uploads the
// weights it was sent.
type srcRecorder struct {
	mu   sync.Mutex
	srcs map[[2]int]map[*model.Model]uint64
}

func (r *srcRecorder) Train(m *model.Model, spec TrainSpec, _ LocalConfig, upload []*tensor.Tensor) (float64, int, error) {
	for i, p := range m.Params() {
		copy(upload[i].Data, p.Data)
	}
	d := weightDigest(m)
	r.mu.Lock()
	defer r.mu.Unlock()
	k := [2]int{spec.Round, m.ID}
	if r.srcs[k] == nil {
		r.srcs[k] = make(map[*model.Model]uint64)
	}
	r.srcs[k][m] = d
	return 1, 1, nil
}

// orderRecorder is a Trainer that records each attempt's client and its
// model's MACs per sample, in the order the attempts ran, and uploads the
// weights it was sent.
type orderRecorder struct {
	mu    sync.Mutex
	calls [][2]float64 // (client, MACs per sample)
}

func (r *orderRecorder) Train(m *model.Model, spec TrainSpec, _ LocalConfig, upload []*tensor.Tensor) (float64, int, error) {
	for i, p := range m.Params() {
		copy(upload[i].Data, p.Data)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, [2]float64{float64(spec.Client), m.MACsPerSample()})
	return 1, 1, nil
}

// TestSyncRoundTrainsLargestFirst pins the synchronous round's training
// order on a three-model suite at GOMAXPROCS 1, where the consumer runs
// every task itself, in the order it takes them. A round whose
// dispatches fit the stream window trains them in stable descending
// MACs per sample; a round larger than the window trains them in
// selection order, as it dispatches them. A round's flights are retired
// to flightFree in dispatch order, which is where the test reads the
// selection order from.
func TestSyncRoundTrainsLargestFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 1000-participant rounds")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rt, round := roundLoopRuntime(1000, 0, 3)
	rec := &orderRecorder{}
	rt.cfg.Trainer = rec
	dispatched := func(n int) [][2]float64 {
		var out [][2]float64
		for _, f := range rt.flightFree[len(rt.flightFree)-n:] {
			out = append(out, [2]float64{float64(f.slot.client), f.slot.m.MACsPerSample()})
		}
		return out
	}
	var res Result
	rt.runRound(round, &res)
	round++
	if n := len(rec.calls); n <= rt.pol.window || !slices.Equal(rec.calls, dispatched(n)) {
		t.Fatalf("a round of %d dispatches, window %d, did not train in selection order", n, rt.pol.window)
	}

	rt.cfg.ClientsPerRound = 12
	rt.pol = newPolicy(&rt.cfg)
	reordered := 0
	for range 8 {
		rec.calls = rec.calls[:0]
		rt.runRound(round, &res)
		round++
		n := len(rec.calls)
		want := dispatched(n)
		if !slices.IsSortedFunc(want, byMACsDesc) {
			reordered++
		}
		slices.SortStableFunc(want, byMACsDesc)
		if n == 0 || n > rt.pol.window || !slices.Equal(rec.calls, want) {
			t.Fatalf("round %d: a round of %d dispatches, window %d, trained %v, want largest first %v", round-1, n, rt.pol.window, rec.calls, want)
		}
	}
	if reordered == 0 {
		t.Fatal("no small round dispatched out of largest-first order: the test shows nothing")
	}
}

// byMACsDesc orders orderRecorder calls by descending MACs per sample.
func byMACsDesc(a, b [2]float64) int { return cmp.Compare(b[1], a[1]) }

// TestAsyncRoundIndependentOfPopulation pins the asynchronous top-up
// selection at O(in-flight): over a generative population of 10⁶
// clients, the round loop allocates what it allocates at 10⁴, in bytes
// and in objects, within 5 %. It counts from a fresh runtime through the
// two warm-up rounds, where the loop grows its per-round scratch, and one
// steady-state round, at 100 participants and staleness 2.
func TestAsyncRoundIndependentOfPopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a population of 10⁶ clients")
	}
	if raceEnabled {
		t.Skip("under -race, sync.Pool drops Puts, so the bytes a round allocates vary")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	measure := func(population int) (bytes, objects uint64) {
		rt := loopRuntime(population, true, 100, 2)
		var res Result
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for round := range 3 {
			rt.runRound(round, &res)
		}
		runtime.ReadMemStats(&after)
		rt.drain()
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	smallB, smallN := measure(10_000)
	bigB, bigN := measure(1_000_000)
	t.Logf("three async rounds: %d B, %d objects at 10⁴; %d B, %d objects at 10⁶", smallB, smallN, bigB, bigN)
	if 100*bigB > 105*smallB || 100*bigN > 105*smallN {
		t.Errorf("the round loop allocates %d B and %d objects at 10⁶ clients against %d B and %d at 10⁴: it grows with the population",
			bigB, bigN, smallB, smallN)
	}
}

// TestManagerIndependentOfPopulation pins the Client Manager at
// O(trained clients): NewManager allocates the same bytes at populations
// 10⁴ and 10⁶, and the utility table a generative run holds after four
// rounds of 100 participants is the same size, within 5 %, at both. The
// table's size is the heap it keeps alive: the live heap with the
// Manager minus the live heap without it.
func TestManagerIndependentOfPopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a population of 10⁶ clients")
	}
	if raceEnabled {
		t.Skip("under -race, sync.Pool drops Puts, so the heap a run leaves varies")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	newManager := func(population int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		managerSink = assign.NewManager(population)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, big := newManager(10_000), newManager(1_000_000)
	t.Logf("NewManager allocates %d B at population 10⁴, %d B at 10⁶", small, big)
	if small != big {
		t.Errorf("NewManager allocates %d B at population 10⁴, %d B at 10⁶", small, big)
	}
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC() // the second empties the sync.Pool victim caches
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	held := func(population int) (uint64, int) {
		ds, tr, spec := genSetup(t, population, true)
		cfg := DefaultConfig()
		cfg.Rounds, cfg.ClientsPerRound, cfg.EvalSample, cfg.ConvergePatience = 4, 100, 8, 0
		cfg.Local = LocalConfig{Steps: 2, BatchSize: 8, LR: 0.05}
		rt := New(cfg, ds, tr, spec)
		rt.Run()
		trained := len(rt.mgr.ExportUtilities())
		with := live()
		rt.mgr = nil
		without := live()
		runtime.KeepAlive(rt)
		return with - without, trained
	}
	smallB, smallN := held(10_000)
	bigB, bigN := held(1_000_000)
	t.Logf("the utility table holds %d B for %d trained clients at 10⁴, %d B for %d at 10⁶", smallB, smallN, bigB, bigN)
	if 100*bigB > 105*smallB || 100*smallB > 105*bigB {
		t.Errorf("the utility table holds %d B at 10⁶ clients against %d B at 10⁴: it grows with the population", bigB, smallB)
	}
}

// managerSink keeps NewManager's result on the heap.
var managerSink *assign.Manager

// TestSyncRoundHoldsWindowUploads pins the streaming round's memory bound:
// a synchronous round of 1000 participants keeps at most streamWindow()
// updates trained but not yet folded. Upload buffer sets are built only
// when the pool is empty, so the sets the pool holds after the round are
// the most that were ever out at once.
func TestSyncRoundHoldsWindowUploads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1000-participant round")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rt, round := roundLoopRuntime(1000, 0, 1)
	var res Result
	rt.runRound(round, &res)
	held := 0
	for _, sets := range rt.uploads.free {
		held += len(sets)
	}
	if held == 0 || held > streamWindow() {
		t.Errorf("a 1000-participant round held %d upload sets at once, window %d", held, streamWindow())
	}
}

// TestEvaluateAllAllocationRegression pins the pooled evaluation path:
// with sessions drawn from the runtime's shared pool (and refreshed via
// SetWeights instead of cloned), a steady-state EvaluateAll allocates
// only small per-client bookkeeping — result slices, compatibility
// lists, chunk-local session maps — never weight-tensor-sized buffers.
// The budget scales with the client count, not the model size.
func TestEvaluateAllAllocationRegression(t *testing.T) {
	rt := benchRuntime("cifar10")
	rt.Run()
	rt.EvaluateAll() // warm the session pool across eval chunks
	allocs := testing.AllocsPerRun(10, func() { rt.EvaluateAll() })
	budget := float64(2*len(rt.ds.Clients) + 16)
	if allocs > budget {
		t.Errorf("EvaluateAll allocates %.1f times per call, want <= %.0f (pooled sessions must not clone models)", allocs, budget)
	}
}
