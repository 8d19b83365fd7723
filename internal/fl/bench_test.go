package fl

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/model"
	"fedtrans/internal/nn"
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
// the sharded streaming accumulator and pooled sessions/upload buffers,
// round allocation no longer scales with ClientsPerRound (the buffered
// loop retained every participant's full weight tensors), so the 1000-
// client round must stay within ~2× of the 100-client round's B/op.
func BenchmarkRoundLoop(b *testing.B) {
	for _, cpr := range []int{100, 1000} {
		b.Run(fmt.Sprintf("clients=%d", cpr), func(b *testing.B) {
			rt := roundLoopRuntime(cpr, 0)
			var res Result
			rt.runRound(0, &res) // warm pools, sessions, accumulators
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.runRound(i+1, &res)
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
// round — top-up selection over the non-busy population, COW dispatch
// snapshots, background training through par.TaskStream, arrival-ordered
// staleness-discounted folding, and the virtual-clock advance — at
// increasing commit budgets. Run it next to the synchronous
// BenchmarkRoundLoop to see what the asynchronous policy costs over
// sync on the one round engine.
func BenchmarkAsyncRoundLoop(b *testing.B) {
	for _, cpr := range []int{100, 1000} {
		b.Run(fmt.Sprintf("clients=%d", cpr), func(b *testing.B) {
			rt := roundLoopRuntime(cpr, 2)
			var res Result
			rt.runRound(0, &res) // warm pools, sessions, the in-flight set
			rt.runRound(1, &res)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.runRound(i+2, &res)
			}
			b.StopTimer()
			rt.drain()
		})
	}
}

// roundLoopRuntime is the round-loop benchmarks' runtime: a fixed suite
// over a "scale" population of 1200 clients (2400 when asynchronous),
// cpr participants a round, two local steps.
func roundLoopRuntime(cpr, maxStaleness int) *Runtime {
	model.ResetIDs()
	n := 1200
	if maxStaleness > 0 {
		n = 2400
	}
	ds := data.Generate(data.Config{
		Profile: "scale", Clients: n, Heterogeneity: 1,
		MinSamples: 8, MaxSamples: 16, TestSamples: 8, Seed: 1,
	})
	spec := model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes)
	base := spec.Build(rand.New(rand.NewSource(0))).MACsPerSample()
	tr := device.NewTrace(device.TraceConfig{
		N: n, MinCapacityMACs: base, MaxCapacityMACs: base * 32, Seed: 101,
	})
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
// participants: every per-participant record, buffer and session is
// pooled, so a round allocates per-round bookkeeping (the selection, the
// per-model counts, the Finalize copies) and little more. The ceilings are
// the counts measured before sync rounds moved onto the async engine.
func TestRoundLoopAllocationRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 1000-participant rounds")
	}
	// AllocsPerRun measures at GOMAXPROCS 1; warming up there too keeps a
	// background worker from carrying timing-dependent state into it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		cpr, staleness int
		ceiling        float64
	}{
		{100, 0, 156}, {1000, 0, 26}, {100, 2, 405}, {1000, 2, 2144},
	} {
		rt := roundLoopRuntime(c.cpr, c.staleness)
		var res Result
		round := 0
		next := func() { rt.runRound(round, &res); round++ }
		next() // warm pools, sessions, accumulators and the in-flight set
		next()
		allocs := testing.AllocsPerRun(4, next)
		rt.drain()
		t.Logf("participants %d, staleness %d: %.1f allocs a round", c.cpr, c.staleness, allocs)
		if allocs > c.ceiling {
			t.Errorf("participants %d, staleness %d: %.1f allocs a round, ceiling %.0f", c.cpr, c.staleness, allocs, c.ceiling)
		}
	}
}

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
	rt := roundLoopRuntime(1000, 0)
	var res Result
	rt.runRound(0, &res)
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
