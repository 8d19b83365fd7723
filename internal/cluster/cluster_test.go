package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/model"
	"fedtrans/internal/tensor"
)

func TestKMeansSeparatesObviousClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Two tight groups on the unit sphere: around +e1 and around +e2.
	var sigs [][]float64
	for i := 0; i < 10; i++ {
		a := []float64{1, 0.01 * rng.NormFloat64(), 0.01 * rng.NormFloat64()}
		b := []float64{0.01 * rng.NormFloat64(), 1, 0.01 * rng.NormFloat64()}
		normalize(a)
		normalize(b)
		sigs = append(sigs, a, b)
	}
	assign := KMeans(sigs, 2, 20, rng)
	// All even indices (group A) must share a label, all odd another.
	la, lb := assign[0], assign[1]
	if la == lb {
		t.Fatal("groups collapsed into one cluster")
	}
	for i, a := range assign {
		want := la
		if i%2 == 1 {
			want = lb
		}
		if a != want {
			t.Fatalf("point %d assigned %d, want %d", i, a, want)
		}
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if KMeans(nil, 3, 5, rng) != nil {
		t.Error("empty input should give nil")
	}
	one := [][]float64{{1, 0}}
	if got := KMeans(one, 5, 5, rng); len(got) != 1 || got[0] != 0 {
		t.Errorf("k > n should clamp: %v", got)
	}
}

func TestClusteredRunRecoversGroupStructure(t *testing.T) {
	// Two client populations with disjoint label ranges: clustering on
	// update signatures should (mostly) separate them and per-cluster
	// models should beat a single global model.
	model.ResetIDs()
	dsA := data.Generate(data.Config{Profile: "femnist", Clients: 10, Heterogeneity: 0.3, Seed: 21})
	dsB := data.Generate(data.Config{Profile: "femnist", Clients: 10, Heterogeneity: 0.3, Seed: 77})
	// Merge: group A keeps its labels, group B gets shifted labels so the
	// two populations are statistically distinct.
	merged := &data.Dataset{
		Classes:    dsA.Classes,
		FeatureDim: dsA.FeatureDim,
		InputShape: dsA.InputShape,
		Profile:    "femnist",
	}
	merged.Clients = append(merged.Clients, dsA.Clients...)
	merged.Clients = append(merged.Clients, dsB.Clients...)

	trace := device.NewTrace(device.TraceConfig{N: 20, MinCapacityMACs: 1e4, MaxCapacityMACs: 3e5, Seed: 4})
	spec := model.Spec{Family: "dense", Input: []int{merged.FeatureDim}, Hidden: []int{24}, Classes: merged.Classes}

	cfg := DefaultConfig()
	cfg.K = 2
	cfg.Rounds = 20
	cfg.ProbeRounds = 4
	rt := New(cfg, merged, trace, spec)
	res := rt.Run()
	if len(res.Assignment) != 20 {
		t.Fatalf("assignments = %d", len(res.Assignment))
	}
	if res.Sizes[0] == 0 || res.Sizes[1] == 0 {
		t.Errorf("degenerate clustering: sizes %v", res.Sizes)
	}
	if res.MeanAcc < 2.0/float64(merged.Classes) {
		t.Errorf("clustered training failed to learn: %.3f", res.MeanAcc)
	}
	if res.Costs.TrainMACs <= 0 {
		t.Error("cost accounting missing")
	}
}

func TestSignaturesAreUnitNorm(t *testing.T) {
	model.ResetIDs()
	ds := data.Generate(data.Config{Profile: "femnist", Clients: 6, Seed: 5})
	trace := device.NewTrace(device.TraceConfig{N: 6, MinCapacityMACs: 1e4, MaxCapacityMACs: 3e5, Seed: 5})
	spec := model.Spec{Family: "dense", Input: []int{ds.FeatureDim}, Hidden: []int{8}, Classes: ds.Classes}
	cfg := DefaultConfig()
	cfg.ProbeRounds = 2
	rt := New(cfg, ds, trace, spec)
	probe := spec.Build(rand.New(rand.NewSource(1)))
	sigs := rt.Signatures(probe)
	for i, s := range sigs {
		if len(s) != signatureDim {
			t.Fatalf("signature %d dim %d", i, len(s))
		}
		n := 0.0
		for _, v := range s {
			n += v * v
		}
		if n < 0.99 || n > 1.01 {
			t.Errorf("signature %d norm^2 = %.3f, want 1", i, n)
		}
	}
	// Signatures must not mutate the probe.
	x := tensor.New(1, ds.FeatureDim)
	_ = probe.Forward(x)
}

func TestClusterDeterminism(t *testing.T) {
	run := func() Result {
		model.ResetIDs()
		ds := data.Generate(data.Config{Profile: "femnist", Clients: 8, Seed: 6})
		trace := device.NewTrace(device.TraceConfig{N: 8, MinCapacityMACs: 1e4, MaxCapacityMACs: 3e5, Seed: 6})
		spec := model.Spec{Family: "dense", Input: []int{ds.FeatureDim}, Hidden: []int{8}, Classes: ds.Classes}
		cfg := DefaultConfig()
		cfg.Rounds = 6
		cfg.ProbeRounds = 2
		return New(cfg, ds, trace, spec).Run()
	}
	a, b := run(), run()
	if a.MeanAcc != b.MeanAcc {
		t.Errorf("nondeterministic: %v vs %v", a.MeanAcc, b.MeanAcc)
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("nondeterministic assignment")
		}
	}
}

// goldenClusterDigests pins, per kernel tier, a clustered run's every
// drawn number (assignment, sizes, accuracies, costs) followed by the
// weights two trainAndAverage rounds leave in a model — an accuracy is a
// ratio of small counts and would hide a last-bit change in the mean.
// Recorded on amd64 before trainAndAverage moved onto
// aggregate.MaskedMean.
var goldenClusterDigests = map[tensor.SIMDLevel]uint64{
	tensor.SIMDGeneric: 0x65e8ed858ef588f5,
	tensor.SIMDAVX2:    0xbf647fe9d2e77d78,
	tensor.SIMDAVX512:  0xe41f4cba1b1739a3,
}

func TestGoldenResult(t *testing.T) {
	defer tensor.SetSIMDLevel(tensor.CurrentSIMDLevel())
	for level := tensor.SIMDGeneric; level <= tensor.SIMDSupported(); level++ {
		tensor.SetSIMDLevel(level)
		ds := data.Generate(data.Config{Profile: "femnist", Clients: 10, Heterogeneity: 0.3, Seed: 6})
		trace := device.NewTrace(device.TraceConfig{N: 10, MinCapacityMACs: 1e4, MaxCapacityMACs: 3e5, Seed: 6})
		spec := model.Spec{Family: "dense", Input: []int{ds.FeatureDim}, Hidden: []int{12}, Classes: ds.Classes}
		cfg := DefaultConfig()
		cfg.K, cfg.Rounds, cfg.ProbeRounds, cfg.ClientsPerRound, cfg.Seed = 2, 5, 2, 4, 9
		cfg.Local.Steps = 4
		res := New(cfg, ds, trace, spec).Run()
		if res.Sizes[0] == 0 || res.Sizes[1] == 0 {
			t.Fatalf("degenerate clustering %v: one cluster model never trains", res.Sizes)
		}

		h := fnv.New64a() // over 64-bit words, low byte first
		word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
		for _, a := range res.Assignment {
			word(uint64(a))
		}
		for _, n := range res.Sizes {
			word(uint64(n))
		}
		word(math.Float64bits(res.MeanAcc))
		for _, a := range res.ClientAcc {
			word(math.Float64bits(a))
		}
		word(math.Float64bits(res.Costs.TrainMACs))
		word(uint64(res.Costs.NetworkBytes))

		rt := New(cfg, ds, trace, spec)
		m := spec.BuildScoped(rand.New(rand.NewSource(cfg.Seed)), model.NewIDGen())
		var scratch Result
		rt.trainAndAverage(m, []int{7, 2, 5}, 0, &scratch)
		rt.trainAndAverage(m, []int{1, 9}, 1, &scratch)
		for _, p := range m.Params() {
			for _, v := range p.Data {
				word(uint64(math.Float32bits(v)))
			}
		}

		want, pinned := goldenClusterDigests[level]
		if pinned && runtime.GOARCH == "amd64" { // another compiler may fuse multiply-adds
			if h.Sum64() != want {
				t.Errorf("at %s: digest %#x, golden %#x", level, h.Sum64(), want)
			}
		} else {
			t.Logf("at %s: digest %#x (not pinned on this platform)", level, h.Sum64())
		}
	}
}
