package baselines

import (
	"math"
	"math/rand"
	"sort"

	"fedtrans/internal/aggregate"
	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/fl"
	"fedtrans/internal/model"
	"fedtrans/internal/nn"
	"fedtrans/internal/tensor"
)

// FLuID implements invariant dropout (Wang et al., NeurIPS 2024): a single
// global model whose straggler clients receive width-reduced submodels
// built by dropping the hidden units whose weights changed least
// ("invariant" neurons), so the dropped capacity hurts the model minimum.
// Updated submodel weights merge back into the global model at the kept
// unit positions only.
//
// The re-implementation supports dense stacks (the other families fall
// back to training the full model), which matches how the paper compares
// against it: on capacity-constrained width reduction of a shared model.
type FLuID struct {
	cfg    Config
	ds     *data.Dataset
	trace  *device.Trace
	global *model.Model
	// updateMag tracks the per-unit update magnitude EMA of every dense
	// cell's output units, indexed by cell position.
	updateMag [][]float64
	rng       *rand.Rand
}

// NewFLuID builds the global model from the given (largest) spec.
func NewFLuID(cfg Config, ds *data.Dataset, trace *device.Trace, largest model.Spec) *FLuID {
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &FLuID{cfg: cfg, ds: ds, trace: trace, global: largest.BuildScoped(rng, model.NewIDGen()), rng: rng}
	f.updateMag = make([][]float64, len(f.global.Cells))
	for i := range f.global.Cells {
		if d, ok := f.global.Cells[i].Cell.(*nn.DenseCell); ok {
			f.updateMag[i] = make([]float64, d.OutDim())
		}
	}
	return f
}

// keepFractionFor converts capacity into the fraction of hidden units a
// straggler keeps (1 when the full model fits).
func (f *FLuID) keepFractionFor(capacity float64) float64 {
	full := f.global.MACsPerSample()
	if capacity >= full {
		return 1
	}
	// Dense-stack MACs scale roughly quadratically in width for interior
	// cells; use sqrt to map a MAC budget to a width fraction, floored so
	// the sub-model keeps at least a tenth of the units.
	frac := math.Sqrt(capacity / full)
	if frac < 0.1 {
		frac = 0.1
	}
	return frac
}

// keepSets returns, per dense cell, the sorted indices of units a client
// with the given keep fraction retains: the units with the largest update
// magnitudes (ties broken by index), i.e. invariant units are dropped.
func (f *FLuID) keepSets(frac float64) [][]int {
	sets := make([][]int, len(f.global.Cells))
	for i, mags := range f.updateMag {
		if mags == nil {
			continue
		}
		n := len(mags)
		keep := int(float64(n)*frac + 0.5)
		if keep < 1 {
			keep = 1
		}
		if keep >= n {
			continue // full width, no dropout for this cell
		}
		order := make([]int, n)
		for j := range order {
			order[j] = j
		}
		sort.SliceStable(order, func(a, b int) bool { return mags[order[a]] > mags[order[b]] })
		set := append([]int(nil), order[:keep]...)
		sort.Ints(set)
		sets[i] = set
	}
	return sets
}

// subModel extracts the submodel keeping only the listed units per dense
// cell (nil = all units). The head keeps all classes.
func (f *FLuID) subModel(sets [][]int) *model.Model {
	sub := f.global.Clone()
	for i := range sub.Cells {
		set := sets[i]
		if set == nil {
			continue
		}
		d := sub.Cells[i].Cell.(*nn.DenseCell)
		// Shrink this cell's output and the next parameterized cell's
		// input to the kept units.
		shrinkDenseOut(d, set)
		if i+1 < len(sub.Cells) {
			if nd, ok := sub.Cells[i+1].Cell.(*nn.DenseCell); ok {
				shrinkDenseIn(nd, set)
				continue
			}
		}
		shrinkDenseIn(sub.Head, set)
	}
	sub.InvalidateParamCache()
	return sub
}

// shrinkDenseOut replaces the cell's weights with the kept-unit crop.
// The old headers are COW-released so the global model the submodel was
// cloned from regains exclusive ownership; gradients re-materialize
// lazily at the new shapes.
func shrinkDenseOut(d *nn.DenseCell, keep []int) {
	in := d.InDim()
	w := tensor.New(in, len(keep))
	b := tensor.New(len(keep))
	for j, src := range keep {
		b.Data[j] = d.B.Data[src]
		for i := 0; i < in; i++ {
			w.Data[i*len(keep)+j] = d.W.At(i, src)
		}
	}
	d.W.Release()
	d.B.Release()
	d.W, d.B = w, b
	d.GW, d.GB = nil, nil
}

func shrinkDenseIn(d *nn.DenseCell, keep []int) {
	out := d.OutDim()
	w := tensor.New(len(keep), out)
	for j, src := range keep {
		for k := 0; k < out; k++ {
			w.Data[j*out+k] = d.W.At(src, k)
		}
	}
	d.W.Release()
	d.W = w
	d.GW, d.GB = nil, nil
}

// mergeBack writes submodel weights into the global model at the kept
// positions and refreshes the per-unit update-magnitude EMA (one bump per
// unit using the mean absolute weight delta).
func (f *FLuID) mergeBack(sub *model.Model, sets [][]int) {
	var prevSet []int
	for i := range f.global.Cells {
		gd, ok := f.global.Cells[i].Cell.(*nn.DenseCell)
		if !ok {
			prevSet = nil
			continue
		}
		// The global weights are about to be written element-wise and may
		// be COW-shared with live submodel clones.
		gd.W.EnsureOwned()
		gd.B.EnsureOwned()
		sd := sub.Cells[i].Cell.(*nn.DenseCell)
		outSet := sets[i]
		if outSet == nil {
			outSet = identitySet(gd.OutDim())
		}
		inSet := prevSet
		if inSet == nil {
			inSet = identitySet(gd.InDim())
		}
		for sj, gj := range outSet {
			sumAbs := math.Abs(float64(sd.B.Data[sj] - gd.B.Data[gj]))
			gd.B.Data[gj] = sd.B.Data[sj]
			for si, gi := range inSet {
				nv := sd.W.At(si, sj)
				sumAbs += math.Abs(float64(nv - gd.W.At(gi, gj)))
				gd.W.Set(gi, gj, nv)
			}
			f.bumpMag(i, gj, sumAbs/float64(len(inSet)+1))
		}
		prevSet = outSet
	}
	// Head merge: input units follow the last cell's kept set.
	inSet := prevSet
	if inSet == nil {
		inSet = identitySet(f.global.Head.InDim())
	}
	gh, sh := f.global.Head, sub.Head
	gh.W.EnsureOwned()
	gh.B.EnsureOwned()
	for k := 0; k < gh.OutDim(); k++ {
		gh.B.Data[k] = sh.B.Data[k]
		for si, gi := range inSet {
			gh.W.Set(gi, k, sh.W.At(si, k))
		}
	}
}

func (f *FLuID) bumpMag(cell, unit int, meanAbsDelta float64) {
	const ema = 0.8
	m := f.updateMag[cell]
	if m == nil {
		return
	}
	m[unit] = ema*m[unit] + (1-ema)*meanAbsDelta
}

func identitySet(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// Run executes FLuID training.
func (f *FLuID) Run() fl.Result { return run(f.cfg, f.ds, f.trace, f.rng, f) }

func (f *FLuID) suite() []*model.Model { return []*model.Model{f.global} }

// round follows the paper's aggregation: straggler submodels merge back
// into their kept coordinates as they finish, in selection order
// (equivalent to small-client FedAvg with immediate merging, which
// preserves the comparison's cost and accuracy structure), and the
// global model then averages the full-model updates by sample count,
// with the current global as a weight-1 voter so the straggler merges
// are not erased. Everything trains serially on the shared rng.
func (f *FLuID) round(_ int, selected []int, charge func(client int, trained ...*model.Model)) {
	var full []fl.LocalResult
	for _, c := range selected {
		frac := f.keepFractionFor(f.trace.Devices[c].CapacityMACs)
		if frac >= 1 {
			full = append(full, fl.TrainLocal(f.global, &f.ds.Clients[c], f.cfg.Local, f.rng))
			charge(c, f.global)
			continue
		}
		sets := f.keepSets(frac)
		sub := f.subModel(sets)
		sub.SetWeights(fl.TrainLocal(sub, &f.ds.Clients[c], f.cfg.Local, f.rng).Weights)
		f.mergeBack(sub, sets)
		charge(c, sub)
		sub.Release()
	}
	if len(full) == 0 {
		return
	}
	params := f.global.Params()
	mean := aggregate.NewMaskedMean(params)
	mean.Add(params, 1)
	for _, u := range full {
		w := float64(u.Samples)
		if w <= 0 {
			w = 1
		}
		mean.Add(u.Weights, w)
	}
	mean.Write()
}

// evaluate gives each client the submodel its capacity affords.
func (f *FLuID) evaluate() []float64 {
	accs := make([]float64, len(f.ds.Clients))
	for c := range f.ds.Clients {
		frac := f.keepFractionFor(f.trace.Devices[c].CapacityMACs)
		m := f.global
		if frac < 1 {
			m = f.subModel(f.keepSets(frac))
		}
		accs[c] = fl.EvaluateOn(m, &f.ds.Clients[c])
		if m != f.global {
			m.Release()
		}
	}
	return accs
}
