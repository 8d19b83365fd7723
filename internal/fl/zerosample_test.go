package fl

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/model"
	"fedtrans/internal/xrand"
)

// zeroSampleRuntime builds a small materialized runtime in which the
// given clients have zero training samples (their test split is left
// intact so evaluation still works).
func zeroSampleRuntime(t *testing.T, cfg Config, empty ...int) *Runtime {
	t.Helper()
	ds := data.Generate(data.Config{Profile: "femnist", Clients: 6, Heterogeneity: 1, Seed: 3})
	for _, c := range empty {
		ds.Clients[c].TrainY = nil
	}
	spec := model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes)
	base := spec.Build(rand.New(rand.NewSource(0))).MACsPerSample()
	tr := device.NewTrace(device.TraceConfig{
		N: 6, MinCapacityMACs: base, MaxCapacityMACs: base * 32, Seed: 101,
	})
	return New(cfg, ds, tr, spec)
}

// TestZeroSampleClientPooled pins the streaming (pooled-session) path:
// a client whose shard has zero training samples used to push an empty
// batch into the sampler (rand.Intn(0) panics). Now it trains nothing,
// reports Samples 0, and its update never folds — it carries zero
// FedAvg weight and must not count as a failure.
func TestZeroSampleClientPooled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rounds = 2
	cfg.ClientsPerRound = 6 // select everyone: the empty client always participates
	cfg.Local.Steps = 2
	rt := zeroSampleRuntime(t, cfg, 2)
	res := rt.Run()
	if res.Failures != 0 {
		t.Errorf("zero-sample client counted as %d failures, want 0", res.Failures)
	}
	for _, lg := range res.Log {
		if lg.Updates != 5 {
			t.Errorf("round %d folded %d updates, want 5 (everyone but the empty client)", lg.Round, lg.Updates)
		}
	}
}

// TestZeroSampleAllClients pins the degenerate case: when every
// participant is empty, no update folds and the suite weights stay
// exactly as they were.
func TestZeroSampleAllClients(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rounds = 1
	cfg.ClientsPerRound = 6
	cfg.Local.Steps = 2
	rt := zeroSampleRuntime(t, cfg, 0, 1, 2, 3, 4, 5)
	before := rt.suite[0].CopyWeights()
	rt.Run()
	after := rt.suite[0].Params()
	for i := range before {
		if !reflect.DeepEqual(before[i].Data, after[i].Data) {
			t.Fatalf("param %d changed despite zero folded updates", i)
		}
	}
}

// TestZeroSampleClientUnpooled pins the unpooled TrainLocal path.
func TestZeroSampleClientUnpooled(t *testing.T) {
	ds := data.Generate(data.Config{Profile: "femnist", Clients: 2, Heterogeneity: 1, Seed: 3})
	ds.Clients[0].TrainY = nil
	spec := model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes)
	m := spec.Build(rand.New(rand.NewSource(0)))
	res := TrainLocal(m, &ds.Clients[0], DefaultLocalConfig(), rand.New(rand.NewSource(7)))
	if res.Samples != 0 || res.Loss != 0 {
		t.Fatalf("TrainLocal on empty shard: Samples=%d Loss=%v, want 0, 0", res.Samples, res.Loss)
	}
	for i, p := range m.Params() {
		if !reflect.DeepEqual(res.Weights[i].Data, p.Data) {
			t.Fatalf("param %d: empty-shard training changed the weights", i)
		}
	}
}

// TestTrainLocalBuildsNoSessionRNG pins that TrainLocal, which draws
// batches from its caller's RNG, does not build the session RNG only
// run draws from: a zero-sample call, which trains nothing, allocates
// less than that RNG's xrand.Source alone.
func TestTrainLocalBuildsNoSessionRNG(t *testing.T) {
	ds := data.Generate(data.Config{Profile: "femnist", Clients: 1, Heterogeneity: 1, Seed: 3})
	ds.Clients[0].TrainY = nil
	m := model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes).Build(rand.New(rand.NewSource(0)))
	rng := rand.New(rand.NewSource(7))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	TrainLocal(m, &ds.Clients[0], DefaultLocalConfig(), rng)
	const calls = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		TrainLocal(m, &ds.Clients[0], DefaultLocalConfig(), rng)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	if src := uint64(unsafe.Sizeof(xrand.Source{})); perCall >= src {
		t.Fatalf("zero-sample TrainLocal allocates %d B per call, want < %d (one xrand.Source)", perCall, src)
	}
}
