package baselines

import (
	"math/rand"

	"fedtrans/internal/aggregate"
	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/fl"
	"fedtrans/internal/model"
	"fedtrans/internal/par"
	"fedtrans/internal/tensor"
	"fedtrans/internal/xrand"
)

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

// syncLevels re-derives every non-global level as the top-left crop of
// the global weights, detaching a level's buffer first if it is
// COW-shared (e.g. with in-flight level clones).
func (h *HeteroFL) syncLevels() {
	global := h.levels[0].Params()
	for l := 1; l < len(h.levels); l++ {
		for i, p := range h.levels[l].Params() {
			p.EnsureOwned()
			src := global[i]
			tensor.ForOverlap(p, src, func(di, si, n int) { copy(p.Data[di:di+n], src.Data[si:si+n]) })
		}
	}
}

// Run executes HeteroFL training and returns the standard result summary.
func (h *HeteroFL) Run() fl.Result { return run(h.cfg, h.ds, h.trace, h.rng, h) }

func (h *HeteroFL) suite() []*model.Model { return h.levels }

// round trains every selected client on its level in parallel — each on
// a private stream seeded by (round, client), so the schedule cannot
// reach the numbers — then charges and folds in selection order: every
// global entry becomes the mean of the updates whose crop covers it.
func (h *HeteroFL) round(r int, selected []int, charge func(client int, trained ...*model.Model)) {
	levels := make([]*model.Model, len(selected))
	updates := make([][]*tensor.Tensor, len(selected))
	par.ForN(len(selected), func(i int) {
		c := selected[i]
		levels[i] = h.levels[h.levelFor(h.trace.Devices[c].CapacityMACs)]
		crng := rand.New(xrand.New(h.cfg.Seed + int64(r)*1_000_003 + int64(c)*7919))
		updates[i] = fl.TrainLocal(levels[i], &h.ds.Clients[c], h.cfg.Local, crng).Weights
	})
	mean := aggregate.NewMaskedMean(h.levels[0].Params())
	for i, c := range selected {
		charge(c, levels[i])
		mean.Add(updates[i], 1)
	}
	mean.Write()
	h.syncLevels()
}

func (h *HeteroFL) evaluate() []float64 {
	accs := make([]float64, len(h.ds.Clients))
	for c := range h.ds.Clients {
		l := h.levelFor(h.trace.Devices[c].CapacityMACs)
		accs[c] = fl.EvaluateOn(h.levels[l], &h.ds.Clients[c])
	}
	return accs
}
