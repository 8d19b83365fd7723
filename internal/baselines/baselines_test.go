package baselines

import (
	"testing"

	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/model"
)

func testWorkload(t testing.TB) (*data.Dataset, *device.Trace, model.Spec, Config) {
	t.Helper()
	model.ResetIDs()
	ds := data.Generate(data.Config{Profile: "femnist", Clients: 24, Seed: 11})
	trace := device.NewTrace(device.TraceConfig{
		N: 24, MinCapacityMACs: 2_000, MaxCapacityMACs: 60_000, Seed: 5,
	})
	// "Largest model transformed by FedTrans" stand-in: a two-cell dense
	// stack.
	spec := model.Spec{Family: "dense", Input: []int{ds.FeatureDim}, Hidden: []int{64, 64}, Classes: ds.Classes}
	cfg := DefaultConfig()
	cfg.Rounds = 40
	cfg.ClientsPerRound = 8
	return ds, trace, spec, cfg
}

func TestHeteroFLLearns(t *testing.T) {
	ds, trace, spec, cfg := testWorkload(t)
	h := NewHeteroFL(cfg, ds, trace, spec, 4)
	if got := len(h.levels); got != 4 {
		t.Fatalf("levels = %d, want 4", got)
	}
	// Level widths must halve.
	for l := 1; l < 4; l++ {
		if h.levels[l].MACsPerSample() >= h.levels[l-1].MACsPerSample() {
			t.Errorf("level %d MACs not smaller than level %d", l, l-1)
		}
	}
	res := h.Run()
	t.Logf("heterofl meanAcc=%.3f PMACs=%.3g", res.MeanAcc, res.Costs.TrainMACs)
	if res.MeanAcc < 2.0/float64(ds.Classes) {
		t.Errorf("HeteroFL failed to learn: %.3f", res.MeanAcc)
	}
	if res.Costs.TrainMACs <= 0 {
		t.Error("missing cost accounting")
	}
}

func TestSplitMixLearns(t *testing.T) {
	ds, trace, spec, cfg := testWorkload(t)
	s := NewSplitMix(cfg, ds, trace, spec, 4)
	if len(s.bases) != 4 {
		t.Fatalf("bases = %d, want 4", len(s.bases))
	}
	res := s.Run()
	t.Logf("splitmix meanAcc=%.3f PMACs=%.3g", res.MeanAcc, res.Costs.TrainMACs)
	if res.MeanAcc < 2.0/float64(ds.Classes) {
		t.Errorf("SplitMix failed to learn: %.3f", res.MeanAcc)
	}
}

func TestFLuIDLearns(t *testing.T) {
	ds, trace, spec, cfg := testWorkload(t)
	f := NewFLuID(cfg, ds, trace, spec)
	res := f.Run()
	t.Logf("fluid meanAcc=%.3f PMACs=%.3g", res.MeanAcc, res.Costs.TrainMACs)
	if res.MeanAcc < 2.0/float64(ds.Classes) {
		t.Errorf("FLuID failed to learn: %.3f", res.MeanAcc)
	}
}

func TestSingleModelBaselines(t *testing.T) {
	ds, trace, spec, cfg := testWorkload(t)
	cfg.Rounds = 30
	avg := RunFedAvg(cfg, ds, trace, spec)
	prox := RunFedProx(cfg, ds, trace, spec, 0.1)
	yogi := RunFedYogi(cfg, ds, trace, spec)
	t.Logf("fedavg=%.3f fedprox=%.3f fedyogi=%.3f", avg.MeanAcc, prox.MeanAcc, yogi.MeanAcc)
	chance := 1.0 / float64(ds.Classes)
	for name, r := range map[string]float64{"fedavg": avg.MeanAcc, "fedprox": prox.MeanAcc, "fedyogi": yogi.MeanAcc} {
		if r < 2*chance {
			t.Errorf("%s failed to learn: %.3f", name, r)
		}
	}
}

func TestCentralizedUpperBound(t *testing.T) {
	ds, _, spec, cfg := testWorkload(t)
	acc, macs := RunCentralized(cfg, ds, spec, 4)
	t.Logf("centralized acc=%.3f macs=%.3g", acc, macs)
	if acc < 3.0/float64(ds.Classes) {
		t.Errorf("centralized training failed to learn: %.3f", acc)
	}
	if macs <= 0 {
		t.Error("centralized MACs not counted")
	}
}

// TestFLuIDSubModelCostAccounting pins the capacity-constrained FLuID
// round loop end to end under COW submodels: with every client below
// full capacity, each round must still merge trained submodel weights
// and record per-round network transfer and completion times. (Bytes()
// itself is shape-derived and survives Release; the ordering this guards
// is that mergeBack/accounting run on a live submodel.)
func TestFLuIDSubModelCostAccounting(t *testing.T) {
	ds, _, spec, cfg := testWorkload(t)
	// Every device far below the full model's MACs: all clients train
	// width-reduced submodels.
	trace := device.NewTrace(device.TraceConfig{
		N: 24, MinCapacityMACs: 500, MaxCapacityMACs: 1_000, Seed: 5,
	})
	cfg.Rounds = 2
	f := NewFLuID(cfg, ds, trace, spec)
	res := f.Run()
	if res.Costs.NetworkBytes <= 0 {
		t.Errorf("network bytes = %d, want > 0 (submodel transfer accounting lost)", res.Costs.NetworkBytes)
	}
	for r, rt := range res.RoundTimes() {
		if rt <= 0 {
			t.Errorf("round %d time = %v, want > 0", r, rt)
		}
	}
}
