package baselines

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/fl"
	"fedtrans/internal/model"
	"fedtrans/internal/tensor"
)

// goldenWorkload is the seconds-sized comparison the digests below are
// taken on: 12 clients, 4 a round, 6 rounds of 4 local steps, evaluated
// every second round, on a trace that spans a twelfth to four times the
// largest model's MACs. femnist gives a dense stack (rank-2 crops, FLuID
// keep-sets live), cifar10 a conv stack (rank-4 crops, FLuID trains full
// clones and the weight-1-voter average runs).
func goldenWorkload(profile string) (*data.Dataset, *device.Trace, model.Spec, Config) {
	ds := data.Generate(data.Config{Profile: profile, Clients: 12, Seed: 11})
	spec := model.Spec{Family: "dense", Input: []int{ds.FeatureDim}, Hidden: []int{64, 64}, Classes: ds.Classes}
	if profile == "cifar10" {
		spec = model.Spec{Family: "conv", Input: ds.InputShape, Hidden: []int{8, 8}, Classes: ds.Classes}
	}
	full := spec.BuildScoped(rand.New(rand.NewSource(0)), model.NewIDGen()).MACsPerSample()
	trace := device.NewTrace(device.TraceConfig{
		N: 12, MinCapacityMACs: full / 12, MaxCapacityMACs: full * 4, Seed: 5,
	})
	cfg := DefaultConfig()
	cfg.Rounds, cfg.ClientsPerRound, cfg.EvalEvery, cfg.Seed = 6, 4, 2, 3
	cfg.Local.Steps = 4
	return ds, trace, spec, cfg
}

// digest is FNV-1a over 64-bit words, low byte first.
type digest struct{ hash.Hash64 }

func (d digest) word(v uint64) { d.Write(binary.LittleEndian.AppendUint64(nil, v)) }

func (d digest) floats(vs ...float64) {
	d.word(uint64(len(vs)))
	for _, v := range vs {
		d.word(math.Float64bits(v))
	}
}

// resultDigest is FNV-1a over every number a baseline run draws, as
// IEEE-754 bits, the suite's architecture strings, and — because an
// accuracy is a ratio of small counts and would hide a last-bit change
// in a mean — every weight the run ends with.
func resultDigest(r fl.Result, suite []*model.Model) uint64 {
	h := digest{fnv.New64a()}
	h.floats(r.MeanAcc, r.Costs.TrainMACs)
	h.word(uint64(r.Costs.NetworkBytes))
	h.word(uint64(r.Costs.StorageBytes))
	h.floats(r.ClientAcc...)
	curve := r.CostCurve()
	h.floats(r.RoundTimes()...)
	h.floats(curve.X...)
	h.floats(curve.Y...)
	h.floats(r.SuiteMACs...)
	for _, arch := range r.SuiteArch {
		h.word(uint64(len(arch)))
		for _, b := range []byte(arch) {
			h.word(uint64(b))
		}
	}
	for _, m := range suite {
		for _, p := range m.Params() {
			h.word(uint64(len(p.Data)))
			for _, v := range p.Data {
				h.word(uint64(math.Float32bits(v)))
			}
		}
	}
	return h.Sum64()
}

// goldenRuns are the three multi-model baselines of Table 2 on the two
// golden workloads; each returns its result and the models it trained.
var goldenRuns = func() (runs []goldenRun) {
	for _, profile := range []string{"femnist", "cifar10"} {
		runs = append(runs,
			goldenRun{"heterofl", profile, func(c Config, ds *data.Dataset, tr *device.Trace, s model.Spec) (fl.Result, []*model.Model) {
				h := NewHeteroFL(c, ds, tr, s, 4)
				return h.Run(), h.levels
			}},
			goldenRun{"fluid", profile, func(c Config, ds *data.Dataset, tr *device.Trace, s model.Spec) (fl.Result, []*model.Model) {
				f := NewFLuID(c, ds, tr, s)
				return f.Run(), []*model.Model{f.global}
			}},
			goldenRun{"splitmix", profile, func(c Config, ds *data.Dataset, tr *device.Trace, s model.Spec) (fl.Result, []*model.Model) {
				m := NewSplitMix(c, ds, tr, s, 4)
				return m.Run(), m.bases
			}})
	}
	return runs
}()

type goldenRun struct {
	name, profile string
	run           func(Config, *data.Dataset, *device.Trace, model.Spec) (fl.Result, []*model.Model)
}

// goldenDigests holds resultDigest of every goldenRuns entry, in order,
// per kernel tier: the dot-product kernels reduce across a different
// lane partition at each tier (tensor.TestGemmBitIdenticalAcrossAsmTiers),
// so a trained number is a function of the tier. Recorded on amd64 at
// the commit before the four Run loops became one; a refactor of the
// round loop, the means or the crop walks must leave every entry alone.
var goldenDigests = map[tensor.SIMDLevel][6]uint64{
	tensor.SIMDGeneric: {0xc2e88c6c9797e4d4, 0x987c3b25c7bf71e3, 0x43566f870f6f99ff, 0x5b26128aab7c3c00, 0xa7d2e837c7bb42b9, 0x24b99599c6251f9e},
	tensor.SIMDAVX2:    {0xdf4832c0cc7c727c, 0x1c6fdce115e0555b, 0xb314b236b0bb37c4, 0x44384546109f8355, 0xb1ac433649cd3307, 0x5a203c6003accac1},
	tensor.SIMDAVX512:  {0x3f929e2ddca8c780, 0x151707eeddcb59e7, 0xa05f7197ad251bb5, 0x410380340950e01b, 0x9fe5973f73e92b20, 0x3d61a5cf7da04fa3},
}

// TestGoldenWorkloadSpread keeps the goldens from going vacuous: the
// trace must put clients on at least three HeteroFL levels and on both
// FLuID branches (full model and width-reduced submodel).
func TestGoldenWorkloadSpread(t *testing.T) {
	for _, profile := range []string{"femnist", "cifar10"} {
		ds, trace, spec, cfg := goldenWorkload(profile)
		h := NewHeteroFL(cfg, ds, trace, spec, 4)
		f := NewFLuID(cfg, ds, trace, spec)
		levels := map[int]bool{}
		full, sub := 0, 0
		for c := range ds.Clients {
			capacity := trace.Devices[c].CapacityMACs
			levels[h.levelFor(capacity)] = true
			if f.keepFractionFor(capacity) >= 1 {
				full++
			} else {
				sub++
			}
		}
		if len(levels) < 3 || full == 0 || sub == 0 {
			t.Errorf("%s: clients on %d HeteroFL levels, %d full / %d reduced FLuID clients", profile, len(levels), full, sub)
		}
	}
}

// TestGoldenResults pins every drawn number of the Table 2 baselines:
// at each kernel tier the host has, each run's digest is the committed
// one under GOMAXPROCS 1 and under GOMAXPROCS 4.
func TestGoldenResults(t *testing.T) {
	defer tensor.SetSIMDLevel(tensor.CurrentSIMDLevel())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for level := tensor.SIMDGeneric; level <= tensor.SIMDSupported(); level++ {
		tensor.SetSIMDLevel(level)
		want, pinned := goldenDigests[level]
		if runtime.GOARCH != "amd64" {
			pinned = false // another compiler may fuse multiply-adds
		}
		for i, g := range goldenRuns {
			var got [2]uint64
			for k, procs := range []int{1, 4} {
				runtime.GOMAXPROCS(procs)
				ds, trace, spec, cfg := goldenWorkload(g.profile)
				got[k] = resultDigest(g.run(cfg, ds, trace, spec))
			}
			if got[0] != got[1] {
				t.Errorf("%s/%s at %s: digest %#x under GOMAXPROCS 1, %#x under 4", g.name, g.profile, level, got[0], got[1])
			}
			if pinned && got[0] != want[i] {
				t.Errorf("%s/%s at %s: digest %#x, golden %#x", g.name, g.profile, level, got[0], want[i])
			}
			if !pinned {
				t.Logf("%s/%s at %s: digest %#x (not pinned on this platform)", g.name, g.profile, level, got[0])
			}
		}
	}
}

// TestHeteroFLBoundsFanOut: a 200-client round trains on par.ForN's
// bounded pool — it used to start one goroutine per selected client —
// and draws the numbers a serial round draws.
func TestHeteroFLBoundsFanOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(procs int) (digest uint64, peak int) {
		runtime.GOMAXPROCS(procs)
		ds := data.Generate(data.Config{Profile: "femnist", Clients: 200, Seed: 11})
		spec := model.Spec{Family: "dense", Input: []int{ds.FeatureDim}, Hidden: []int{32}, Classes: ds.Classes}
		trace := device.NewTrace(device.TraceConfig{N: 200, MinCapacityMACs: 500, MaxCapacityMACs: 8_000, Seed: 5})
		cfg := DefaultConfig()
		cfg.Rounds, cfg.ClientsPerRound, cfg.Seed = 2, 200, 3
		h := NewHeteroFL(cfg, ds, trace, spec, 4)
		before := runtime.NumGoroutine()
		stop, sampled := make(chan struct{}), make(chan int)
		go func() {
			high := 0
			for {
				select {
				case <-stop:
					sampled <- high
					return
				default:
					high = max(high, runtime.NumGoroutine())
					time.Sleep(20 * time.Microsecond)
				}
			}
		}()
		res := h.Run()
		close(stop)
		return resultDigest(res, h.levels), <-sampled - before - 1 // the sampler itself
	}
	serial, _ := run(1)
	parallel, extra := run(4)
	if serial != parallel {
		t.Errorf("digest %#x under GOMAXPROCS 1, %#x under 4", serial, parallel)
	}
	if extra > 4 {
		t.Errorf("%d goroutines beyond the caller at the peak of a 200-client round, want at most GOMAXPROCS = 4", extra)
	}
}
