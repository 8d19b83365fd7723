package fl

import (
	"math/rand"
	"reflect"
	"testing"

	"fedtrans/internal/device"
	"fedtrans/internal/model"
	"fedtrans/internal/tensor"
)

func TestSelectClients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got := SelectClients(10, 4, rng)
	if len(got) != 4 {
		t.Fatalf("selected %d, want 4", len(got))
	}
	seen := map[int]bool{}
	for _, c := range got {
		if c < 0 || c >= 10 {
			t.Fatalf("client %d out of range", c)
		}
		if seen[c] {
			t.Fatal("duplicate client selected")
		}
		seen[c] = true
	}
	all := SelectClients(3, 10, rng)
	if len(all) != 3 {
		t.Errorf("n > total should select all, got %d", len(all))
	}
	if got := SelectClients(5, 5, rng); len(got) != 5 {
		t.Errorf("n == total should select all, got %d", len(got))
	}
	if got := SelectClients(0, 3, rng); len(got) != 0 {
		t.Errorf("zero clients should select none, got %d", len(got))
	}
}

func TestRandomSelectDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got := SelectClients(20, 6, rng)
	if len(got) != 6 {
		t.Fatalf("selected %d", len(got))
	}
	seen := map[int]bool{}
	for _, c := range got {
		if seen[c] || c < 0 || c >= 20 {
			t.Fatal("invalid selection")
		}
		seen[c] = true
	}
	if all := SelectClients(3, 9, rng); len(all) != 3 {
		t.Errorf("n>total should return all, got %d", len(all))
	}
}

func TestRandomSelectFromUniformOverCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cands := []int{2, 4, 6, 8}
	got := selectFrom(cands, 2, rng)
	if len(got) != 2 {
		t.Fatalf("selected %d, want 2", len(got))
	}
	for _, c := range got {
		if c%2 != 0 || c < 2 || c > 8 {
			t.Fatalf("selected %d outside candidates", c)
		}
	}
	all := selectFrom(cands, 9, rng)
	if !reflect.DeepEqual(all, cands) {
		t.Fatalf("n >= len(candidates) must return all candidates, got %v", all)
	}
}

// TestRunRoundZeroCompatibleSkipsClient pins the zero-compatible-models
// edge: with an empty-suite compatibility result the client is skipped
// without costs. The public Compatible always admits the initial model,
// so drive Sample directly the way runRound does.
func TestRunRoundZeroCompatibleSkipsClient(t *testing.T) {
	ds, tr, spec := smokeSetup(t, 6)
	cfg := DefaultConfig()
	cfg.Rounds = 2
	cfg.ClientsPerRound = 3
	cfg.ConvergePatience = 0
	rt := New(cfg, ds, tr, spec)
	if got := rt.mgr.Sample(0, nil, rand.New(rand.NewSource(1))); got != nil {
		t.Fatal("Sample with zero compatible models must return nil")
	}
	// And the full round loop still runs when every client is compatible
	// with only the initial model.
	res := rt.Run()
	if res.RoundsRun != cfg.Rounds {
		t.Fatalf("rounds run = %d", res.RoundsRun)
	}
}

func TestTrainLocalDoesNotMutateServerModel(t *testing.T) {
	ds, _, spec := smokeSetup(t, 4)
	rng := rand.New(rand.NewSource(2))
	m := spec.Build(rng)
	before := m.CopyWeights()
	res := TrainLocal(m, &ds.Clients[0], DefaultLocalConfig(), rng)
	after := m.Params()
	for i := range after {
		if !tensor.Equal(before[i], after[i], 0) {
			t.Fatal("TrainLocal mutated the server model")
		}
	}
	if res.Samples != len(ds.Clients[0].TrainY) {
		t.Errorf("samples = %d", res.Samples)
	}
	if res.Loss <= 0 {
		t.Errorf("loss = %v", res.Loss)
	}
	// Returned weights must differ from the server weights (training
	// happened).
	moved := false
	for i := range res.Weights {
		if !tensor.Equal(before[i], res.Weights[i], 1e-12) {
			moved = true
		}
	}
	if !moved {
		t.Error("local training produced identical weights")
	}
}

func TestTrainLocalProxStaysCloser(t *testing.T) {
	ds, _, spec := smokeSetup(t, 4)
	rng := rand.New(rand.NewSource(3))
	m := spec.Build(rng)
	cfg := DefaultLocalConfig()
	plain := TrainLocal(m, &ds.Clients[0], cfg, rand.New(rand.NewSource(7)))
	cfg.ProxMu = 5
	prox := TrainLocal(m, &ds.Clients[0], cfg, rand.New(rand.NewSource(7)))
	base := m.CopyWeights()
	dPlain, dProx := 0.0, 0.0
	for i := range base {
		for j := range base[i].Data {
			dp := float64(plain.Weights[i].Data[j] - base[i].Data[j])
			dx := float64(prox.Weights[i].Data[j] - base[i].Data[j])
			dPlain += dp * dp
			dProx += dx * dx
		}
	}
	if dProx >= dPlain {
		t.Errorf("FedProx should stay closer to the anchor: plain %.4g vs prox %.4g", dPlain, dProx)
	}
}

func TestRuntimeDeterminism(t *testing.T) {
	run := func() Result {
		ds, tr, spec := smokeSetup(t, 12)
		cfg := DefaultConfig()
		cfg.Rounds = 12
		cfg.ClientsPerRound = 4
		cfg.ConvergePatience = 0
		return New(cfg, ds, tr, spec).Run()
	}
	a := run()
	b := run()
	if a.MeanAcc != b.MeanAcc {
		t.Errorf("same seed, different accuracy: %v vs %v", a.MeanAcc, b.MeanAcc)
	}
	if a.Costs.TrainMACs != b.Costs.TrainMACs {
		t.Errorf("same seed, different cost: %v vs %v", a.Costs.TrainMACs, b.Costs.TrainMACs)
	}
}

func TestRuntimeDisableTransformKeepsSingleModel(t *testing.T) {
	ds, tr, spec := smokeSetup(t, 10)
	cfg := DefaultConfig()
	cfg.Rounds = 15
	cfg.ClientsPerRound = 4
	cfg.DisableTransform = true
	cfg.ConvergePatience = 0
	rt := New(cfg, ds, tr, spec)
	res := rt.Run()
	if len(res.SuiteArch) != 1 {
		t.Errorf("suite = %v, want single model", res.SuiteArch)
	}
}

func TestRuntimeCapacityBoundsSuite(t *testing.T) {
	ds, _, spec := smokeSetup(t, 10)
	// Trace where max capacity is barely above the initial model: no room
	// to grow.
	base := spec.Build(rand.New(rand.NewSource(0))).MACsPerSample()
	tr := device.NewTrace(device.TraceConfig{
		N: 10, MinCapacityMACs: base, MaxCapacityMACs: base * 1.01, Seed: 1,
	})
	cfg := DefaultConfig()
	cfg.Rounds = 40
	cfg.ClientsPerRound = 5
	cfg.Transform.Gamma = 2
	cfg.Transform.Delta = 2
	cfg.Transform.Beta = 0.5
	cfg.ConvergePatience = 0
	rt := New(cfg, ds, tr, spec)
	res := rt.Run()
	for _, macs := range res.SuiteMACs {
		if macs > base*1.01 {
			t.Errorf("model with %.0f MACs exceeds max capacity %.0f", macs, base*1.01)
		}
	}
}

func TestRuntimeConvergenceStopsEarly(t *testing.T) {
	ds, tr, spec := smokeSetup(t, 10)
	cfg := DefaultConfig()
	cfg.Rounds = 200
	cfg.ClientsPerRound = 5
	cfg.EvalEvery = 2
	cfg.ConvergePatience = 3 // three evaluations without a one-point gain
	rt := New(cfg, ds, tr, spec)
	res := rt.Run()
	if res.RoundsRun >= 200 {
		t.Errorf("convergence rule never fired: ran %d rounds", res.RoundsRun)
	}
}

func TestEvaluateAllUsesCompatibleModels(t *testing.T) {
	ds, tr, spec := smokeSetup(t, 10)
	cfg := DefaultConfig()
	cfg.Rounds = 20
	cfg.ClientsPerRound = 5
	cfg.Transform.Gamma = 2
	cfg.Transform.Delta = 2
	cfg.Transform.Beta = 0.2
	cfg.ConvergePatience = 0
	rt := New(cfg, ds, tr, spec)
	rt.Run()
	_, bestMACs := rt.EvaluateAll()
	for c, macs := range bestMACs {
		capacity := tr.Devices[c].CapacityMACs
		initial := rt.Suite()[0].MACsPerSample()
		if macs > capacity && macs != initial {
			t.Errorf("client %d assigned %.0f MACs > capacity %.0f", c, macs, capacity)
		}
	}
}

func TestRuntimeYogiRuns(t *testing.T) {
	ds, tr, spec := smokeSetup(t, 10)
	cfg := DefaultConfig()
	cfg.Rounds = 15
	cfg.ClientsPerRound = 4
	cfg.ServerYogi = true
	cfg.DisableTransform = true
	cfg.ConvergePatience = 0
	rt := New(cfg, ds, tr, spec)
	res := rt.Run()
	if res.MeanAcc <= 1.0/float64(ds.Classes)/2 {
		t.Errorf("Yogi run collapsed: %.3f", res.MeanAcc)
	}
}

func TestRuntimeSuiteLineage(t *testing.T) {
	ds, tr, spec := smokeSetup(t, 12)
	cfg := DefaultConfig()
	cfg.Rounds = 40
	cfg.ClientsPerRound = 6
	cfg.Transform.Gamma = 2
	cfg.Transform.Delta = 2
	cfg.Transform.Beta = 0.2
	cfg.ConvergePatience = 0
	rt := New(cfg, ds, tr, spec)
	rt.Run()
	suite := rt.Suite()
	if len(suite) < 2 {
		t.Skip("no transformation at this scale")
	}
	for i := 1; i < len(suite); i++ {
		if suite[i].ParentID != suite[i-1].ID {
			t.Errorf("model %d parent = %d, want %d (chain lineage)",
				suite[i].ID, suite[i].ParentID, suite[i-1].ID)
		}
		if model.Sim(suite[i-1], suite[i]) <= 0 {
			t.Error("adjacent suite members must be similar")
		}
	}
}

func TestRoundLogConsistency(t *testing.T) {
	ds, tr, spec := smokeSetup(t, 12)
	cfg := DefaultConfig()
	cfg.Rounds = 20
	cfg.ClientsPerRound = 5
	cfg.Transform.Gamma = 3
	cfg.Transform.Delta = 3
	cfg.Transform.Beta = 0.05
	cfg.ConvergePatience = 0
	rt := New(cfg, ds, tr, spec)
	res := rt.Run()
	if len(res.Log) != res.RoundsRun {
		t.Fatalf("log entries %d != rounds %d", len(res.Log), res.RoundsRun)
	}
	transforms := 0
	for i, l := range res.Log {
		if l.Round != i {
			t.Fatalf("log %d has round %d", i, l.Round)
		}
		sum := 0
		for _, n := range l.UpdatesPerModel {
			sum += n
		}
		if sum != l.Updates {
			t.Errorf("round %d: per-model sum %d != updates %d", i, sum, l.Updates)
		}
		if l.Updates != cfg.ClientsPerRound {
			t.Errorf("round %d: updates %d != participants %d", i, l.Updates, cfg.ClientsPerRound)
		}
		if l.Transformed {
			transforms++
		}
		if i > 0 && l.SuiteSize < res.Log[i-1].SuiteSize {
			t.Error("suite size shrank")
		}
	}
	if int64(transforms) != res.Overhead.Transforms {
		t.Errorf("logged transforms %d != counter %d", transforms, res.Overhead.Transforms)
	}
}
