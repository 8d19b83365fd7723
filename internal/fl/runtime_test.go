package fl

import (
	"reflect"
	"runtime"
	"testing"

	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/model"
)

func smokeSetup(t testing.TB, clients int) (*data.Dataset, *device.Trace, model.Spec) {
	t.Helper()
	model.ResetIDs()
	ds := data.Generate(data.Config{Profile: "femnist", Clients: clients, Seed: 7})
	spec := model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes)
	tr := device.NewTrace(device.TraceConfig{
		N: clients, MinCapacityMACs: 2_000, MaxCapacityMACs: 200_000, Seed: 3,
	})
	return ds, tr, spec
}

func TestRuntimeLearnsAndTransforms(t *testing.T) {
	ds, tr, spec := smokeSetup(t, 30)
	cfg := DefaultConfig()
	cfg.Rounds = 80
	cfg.ClientsPerRound = 8
	cfg.Transform.Gamma = 5
	cfg.Transform.Delta = 5
	cfg.Transform.Beta = 0.01
	cfg.ConvergePatience = 0
	rt := New(cfg, ds, tr, spec)
	res := rt.Run()
	t.Logf("meanAcc=%.3f models=%d rounds=%d MACs=%.3g arch=%v",
		res.MeanAcc, len(res.SuiteArch), res.RoundsRun, res.Costs.TrainMACs, res.SuiteArch)
	t.Logf("curve=%v", res.CostCurve.Y)
	chance := 1.0 / float64(ds.Classes)
	if res.MeanAcc < 3*chance {
		t.Fatalf("mean accuracy %.3f did not rise above 3x chance %.3f", res.MeanAcc, chance)
	}
	if len(res.SuiteArch) < 2 {
		t.Errorf("expected at least one transformation, suite=%v", res.SuiteArch)
	}
	if res.Costs.TrainMACs <= 0 || res.Costs.NetworkBytes <= 0 || res.Costs.StorageBytes <= 0 {
		t.Errorf("cost accounting incomplete: %+v", res.Costs)
	}
}

// TestRunDeterminismSerialParallelCOW is the determinism golden test for
// the streaming aggregation pipeline over copy-on-write clones: a full
// training run — transformation, soft aggregation and dropouts all
// enabled, so every COW
// clone/unshare/snapshot path, the ordered completion stream, and the
// sharded accumulator folds are all exercised — must produce a
// byte-identical result whether local training runs serially
// (GOMAXPROCS=1, where the stream degrades to produce-then-consume) or
// across the worker pool, and regardless of the stream window size
// (full backpressure at window 1 through effectively-unbounded). This
// extends the PR 1 serial-equals-parallel guarantee through the PR 3
// COW layer to the PR 5 streaming round loop.
func TestRunDeterminismSerialParallelCOW(t *testing.T) {
	run := func(window, maxStaleness int) Result {
		ds, tr, spec := smokeSetup(t, 16)
		cfg := DefaultConfig()
		cfg.Rounds = 12
		cfg.ClientsPerRound = 6
		cfg.EvalEvery = 3
		cfg.ConvergePatience = 0
		cfg.DropoutRate = 0.1
		cfg.RecordLog = true
		cfg.StreamWindow = window
		cfg.MaxStaleness = maxStaleness
		cfg.Transform.Gamma = 3
		cfg.Transform.Delta = 3
		cfg.Transform.Beta = 0.05
		rt := New(cfg, ds, tr, spec)
		return rt.Run()
	}
	// MaxStaleness 0 is the synchronous path; 2 runs the same workload
	// through the FedBuff async loop. Both must be bit-identical between
	// fully serial execution and any parallel stream window.
	for _, ms := range []int{0, 2} {
		prev := runtime.GOMAXPROCS(1)
		serial := run(0, ms)
		runtime.GOMAXPROCS(4)
		for _, window := range []int{0, 1, 2, 64} {
			parallel := run(window, ms)
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("streaming run (window %d, staleness %d) differs from serial execution:\nserial:   %+v\nparallel: %+v",
					window, ms, serial, parallel)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
