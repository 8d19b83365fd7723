package fl

import (
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
	t.Logf("curve=%v", res.CostCurve().Y)
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
