// Package baselines re-implements the multi-model FL systems the paper
// compares against: HeteroFL (Diao et al., ICLR 2020), SplitMix (Hong et
// al., ICLR 2022), and FLuID (Wang et al., NeurIPS 2024), plus thin
// wrappers for single-model FedAvg / FedProx / FedYogi on top of the
// shared runtime. Each re-implementation is faithful at the level the
// paper's evaluation compares them — submodel construction, client
// assignment, and aggregation rules — while sharing this repository's
// training substrate.
package baselines

import (
	"math/rand"
	"sync"

	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/fl"
	"fedtrans/internal/metrics"
	"fedtrans/internal/model"
	"fedtrans/internal/tensor"
	"fedtrans/internal/xrand"
)

// Config is the shared baseline configuration.
type Config struct {
	Rounds          int
	ClientsPerRound int
	Local           fl.LocalConfig
	EvalEvery       int
	Seed            int64
}

// DefaultConfig mirrors fl.DefaultConfig for fair comparison.
func DefaultConfig() Config {
	d := fl.DefaultConfig()
	return Config{
		Rounds:          d.Rounds,
		ClientsPerRound: d.ClientsPerRound,
		Local:           d.Local,
		EvalEvery:       d.EvalEvery,
		Seed:            d.Seed,
	}
}

// HeteroFL trains nested width-scaled submodels of a shared global model.
// Each client receives the largest submodel level compatible with its
// capacity; aggregation averages each global parameter entry over every
// update that covers it (smaller submodels are top-left crops of the
// global weights).
type HeteroFL struct {
	cfg    Config
	ds     *data.Dataset
	trace  *device.Trace
	levels []*model.Model // levels[0] is the global (largest) model
	rng    *rand.Rand
}

// NewHeteroFL builds the level hierarchy from the given (largest) spec
// with width ratios 1, 1/2, 1/4, ... for the requested number of levels.
func NewHeteroFL(cfg Config, ds *data.Dataset, trace *device.Trace, largest model.Spec, numLevels int) *HeteroFL {
	if numLevels < 1 {
		numLevels = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	h := &HeteroFL{cfg: cfg, ds: ds, trace: trace, rng: rng}
	ids := model.NewIDGen()
	ratio := 1.0
	for l := 0; l < numLevels; l++ {
		h.levels = append(h.levels, largest.Scaled(ratio).BuildScoped(rng, ids))
		ratio /= 2
	}
	// Initialize every level as a crop of the global weights so the
	// hierarchy starts nested.
	h.syncLevels()
	return h
}

// Levels exposes the submodel hierarchy (index 0 = global).
func (h *HeteroFL) Levels() []*model.Model { return h.levels }

// levelFor returns the largest level compatible with the capacity (the
// smallest level as fallback so every client participates).
func (h *HeteroFL) levelFor(capacity float64) int {
	for l := 0; l < len(h.levels); l++ {
		if h.levels[l].MACsPerSample() <= capacity {
			return l
		}
	}
	return len(h.levels) - 1
}

// syncLevels re-derives every non-global level by cropping the global
// weights.
func (h *HeteroFL) syncLevels() {
	global := h.levels[0].Params()
	for l := 1; l < len(h.levels); l++ {
		for i, p := range h.levels[l].Params() {
			cropInto(p, global[i])
		}
	}
}

// cropInto copies the top-left overlap of src into dst, detaching dst
// first if its buffer is COW-shared (e.g. with in-flight level clones).
func cropInto(dst, src *tensor.Tensor) {
	if dst.Rank() != src.Rank() {
		return
	}
	dst.EnsureOwned()
	overlap := make([]int, dst.Rank())
	for i := range overlap {
		overlap[i] = dst.Shape[i]
		if src.Shape[i] < overlap[i] {
			overlap[i] = src.Shape[i]
		}
	}
	idx := make([]int, dst.Rank())
	var walk func(axis int)
	walk = func(axis int) {
		if axis == len(idx) {
			so, do := 0, 0
			for i, v := range idx {
				so = so*src.Shape[i] + v
				do = do*dst.Shape[i] + v
			}
			dst.Data[do] = src.Data[so]
			return
		}
		for v := 0; v < overlap[axis]; v++ {
			idx[axis] = v
			walk(axis + 1)
		}
	}
	walk(0)
}

// Run executes HeteroFL training and returns the standard result summary.
func (h *HeteroFL) Run() fl.Result {
	cfg := h.cfg
	res := fl.Result{CostCurve: metrics.Series{Name: "heterofl"}}
	var storage int64
	for _, m := range h.levels {
		storage += m.Bytes()
	}
	res.Costs.ObserveStorage(storage)
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 5
	}
	for round := 0; round < cfg.Rounds; round++ {
		selected := fl.SelectClients(len(h.ds.Clients), cfg.ClientsPerRound, h.rng)
		updates := make([]levelUpdate, len(selected))
		var wg sync.WaitGroup
		for i, c := range selected {
			wg.Add(1)
			go func(i, c int) {
				defer wg.Done()
				l := h.levelFor(h.trace.Devices[c].CapacityMACs)
				crng := rand.New(xrand.New(cfg.Seed + int64(round)*1_000_003 + int64(c)*7919))
				lr := fl.TrainLocal(h.levels[l], &h.ds.Clients[c], cfg.Local, crng)
				updates[i] = levelUpdate{level: l, weights: lr.Weights}
			}(i, c)
		}
		wg.Wait()
		roundTime := 0.0
		for i, c := range selected {
			m := h.levels[updates[i].level]
			res.Costs.AddTraining(m.MACsPerSample(), cfg.Local.Steps, cfg.Local.BatchSize)
			res.Costs.AddTransfer(m.Bytes())
			if t := h.trace.TrainingTime(c, m.MACsPerSample(), cfg.Local.Steps, cfg.Local.BatchSize, m.Bytes()); t > roundTime {
				roundTime = t
			}
		}
		res.RoundTimes = append(res.RoundTimes, roundTime)
		h.aggregateUpdates(updates)
		res.RoundsRun = round + 1
		if (round+1)%evalEvery == 0 || round == cfg.Rounds-1 {
			accs := h.evaluate()
			res.CostCurve.Append(res.Costs.TrainMACs, metrics.Mean(accs))
		}
	}
	accs := h.evaluate()
	res.ClientAcc = accs
	res.MeanAcc = metrics.Mean(accs)
	res.Box = metrics.Box(accs)
	for _, m := range h.levels {
		res.SuiteArch = append(res.SuiteArch, m.ArchString())
		res.SuiteMACs = append(res.SuiteMACs, m.MACsPerSample())
	}
	return res
}

// levelUpdate is one client's round contribution at a given submodel
// level.
type levelUpdate struct {
	level   int
	weights []*tensor.Tensor
}

func (h *HeteroFL) aggregateUpdates(updates []levelUpdate) {
	if len(updates) == 0 {
		return
	}
	global := h.levels[0].Params()
	accs := make([][]float64, len(global))
	cnts := make([][]float64, len(global))
	for i, p := range global {
		accs[i] = make([]float64, p.Len())
		cnts[i] = make([]float64, p.Len())
	}
	for _, u := range updates {
		for i, w := range u.weights {
			addRegion(accs[i], cnts[i], w, global[i])
		}
	}
	for i, p := range global {
		// Detach COW-shared global params before the in-place overwrite.
		p.EnsureOwned()
		for j := range p.Data {
			if cnts[i][j] > 0 {
				p.Data[j] = tensor.Float(accs[i][j] / cnts[i][j])
			}
		}
	}
	h.syncLevels()
}

// addRegion accumulates src (a crop-shaped tensor) into acc/cnt over the
// top-left region of the global shape.
func addRegion(acc, cnt []float64, src, global *tensor.Tensor) {
	if src.Rank() != global.Rank() {
		return
	}
	idx := make([]int, src.Rank())
	var walk func(axis int)
	walk = func(axis int) {
		if axis == len(idx) {
			so, do := 0, 0
			for i, v := range idx {
				so = so*src.Shape[i] + v
				do = do*global.Shape[i] + v
			}
			acc[do] += float64(src.Data[so])
			cnt[do]++
			return
		}
		lim := src.Shape[axis]
		if global.Shape[axis] < lim {
			lim = global.Shape[axis]
		}
		for v := 0; v < lim; v++ {
			idx[axis] = v
			walk(axis + 1)
		}
	}
	walk(0)
}

func (h *HeteroFL) evaluate() []float64 {
	accs := make([]float64, len(h.ds.Clients))
	for c := range h.ds.Clients {
		l := h.levelFor(h.trace.Devices[c].CapacityMACs)
		accs[c] = fl.EvaluateOn(h.levels[l], &h.ds.Clients[c])
	}
	return accs
}
