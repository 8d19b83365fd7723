package model

import (
	"math/rand"
	"sync"
	"testing"

	"fedtrans/internal/nn"
	"fedtrans/internal/tensor"
)

// weightsOf deep-copies a model's parameters for byte-identity checks
// (tensor.Clone, not the COW snapshot under test).
func weightsOf(m *Model) []*tensor.Tensor {
	ps := m.Params()
	out := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		out[i] = p.Clone()
	}
	return out
}

func sameWeights(a []*tensor.Tensor, m *Model) bool {
	ps := m.Params()
	if len(a) != len(ps) {
		return false
	}
	for i, p := range ps {
		for j, v := range p.Data {
			if a[i].Data[j] != v {
				return false
			}
		}
	}
	return true
}

// cowSpecs covers every cell family the suite can contain.
func cowSpecs() []Spec {
	return []Spec{
		{Family: "dense", Input: []int{8}, Hidden: []int{6, 6}, Classes: 4},
		{Family: "conv", Input: []int{2, 6, 6}, Hidden: []int{3, 4}, Classes: 4},
		{Family: "attention", Input: []int{4, 6}, Hidden: []int{8}, Classes: 4},
		{Family: "residual", Input: []int{8}, Hidden: []int{6}, Classes: 4},
	}
}

func probeFor(s Spec, rng *rand.Rand, batch int) (*tensor.Tensor, []int) {
	features := 1
	for _, d := range s.Input {
		features *= d
	}
	x := tensor.New(batch, features)
	x.RandNormal(rng, 1)
	y := make([]int, batch)
	for i := range y {
		y[i] = i % s.Classes
	}
	return x, y
}

// TestCloneCOWTrainingIsolation is the model-level aliasing property
// suite: for every cell family, training a clone must leave the parent
// byte-identical, and server-side writes to the parent must leave a
// pre-write clone byte-identical.
func TestCloneCOWTrainingIsolation(t *testing.T) {
	for _, spec := range cowSpecs() {
		t.Run(spec.Family, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			m := spec.BuildScoped(rng, NewIDGen())
			x, y := probeFor(spec, rng, 4)
			parentBytes := weightsOf(m)

			// Mutate the clone: full train steps write every weight.
			clone := m.Clone()
			opt := nn.NewSGD(0.1)
			for i := 0; i < 3; i++ {
				clone.TrainStep(x, y, opt)
			}
			if !sameWeights(parentBytes, m) {
				t.Fatal("training a clone mutated the parent weights")
			}
			if sameWeights(parentBytes, clone) {
				t.Fatal("training left the clone weights unchanged")
			}
			clone.Release()

			// Mutate the parent: a fresh clone must keep the old bytes.
			reader := m.Clone()
			for i := 0; i < 3; i++ {
				m.TrainStep(x, y, opt)
			}
			if !sameWeights(parentBytes, reader) {
				t.Fatal("mutating the parent changed an existing clone")
			}
			reader.Release()

			// All clones released and the parent written: exclusively owned.
			for _, p := range m.Params() {
				if p.Shared() {
					t.Fatal("parent weights still shared after clones released")
				}
			}
		})
	}
}

// TestCloneCOWSetWeightsIsolation checks the server-side write paths
// (SetWeights / CopyWeights snapshots) against the COW contract.
func TestCloneCOWSetWeightsIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	spec := cowSpecs()[0]
	m := spec.BuildScoped(rng, NewIDGen())
	snap := m.CopyWeights()
	snapBytes := weightsOf(m)

	zero := make([]*tensor.Tensor, len(m.Params()))
	for i, p := range m.Params() {
		zero[i] = tensor.New(p.Shape...)
	}
	m.SetWeights(zero) // overwrites every param in place
	for i, s := range snap {
		for j, v := range s.Data {
			if v != snapBytes[i].Data[j] {
				t.Fatal("CopyWeights snapshot changed when the model was overwritten")
			}
		}
	}
}

// TestCloneZeroWeightCopies is the acceptance-criterion assertion:
// Model.Clone performs zero weight-buffer copies (and no gradient
// allocation) until first write — its footprint is headers only, far
// below the weight bytes of the model.
func TestCloneZeroWeightCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// ~528k weight floats (~2.1 MB): a header-only clone is orders of
	// magnitude smaller.
	spec := Spec{Family: "dense", Input: []int{512}, Hidden: []int{512, 512}, Classes: 16}
	m := spec.BuildScoped(rng, NewIDGen())
	weightBytes := m.Bytes()

	var clones []*Model
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		clones = clones[:0]
		for i := 0; i < b.N; i++ {
			clones = append(clones, m.Clone())
		}
	})
	bpo := res.AllocedBytesPerOp()
	if bpo >= weightBytes/100 {
		t.Errorf("Clone allocates %d B/op against %d weight bytes; want header-only (< 1%%)", bpo, weightBytes)
	}
	for _, c := range clones {
		c.Release()
		// Size accounting is shape-derived and must survive Release, so
		// baseline cost bookkeeping cannot silently read zero bytes.
		if c.Bytes() != weightBytes {
			t.Fatalf("released clone Bytes() = %d, want %d", c.Bytes(), weightBytes)
		}
	}

	// First write after cloning must still be safe: the parent keeps its
	// bytes when a fresh clone trains.
	before := weightsOf(m)
	c := m.Clone()
	x, y := probeFor(spec, rng, 2)
	c.TrainStep(x, y, nn.NewSGD(0.05))
	if !sameWeights(before, m) {
		t.Fatal("first clone write leaked into the parent")
	}
	c.Release()
}

// TestConcurrentCloneTrainEvaluate mirrors the round loop under -race:
// several goroutines clone one shared global model; half train their
// clones, half only evaluate. The global model must come out
// byte-identical and exclusively owned.
func TestConcurrentCloneTrainEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	spec := cowSpecs()[1] // conv exercises the im2col/col2im path too
	m := spec.BuildScoped(rng, NewIDGen())
	x, y := probeFor(spec, rng, 4)
	before := weightsOf(m)

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := m.Clone()
			defer c.Release()
			if w%2 == 0 {
				opt := nn.NewSGD(0.1)
				for i := 0; i < 3; i++ {
					c.TrainStep(x, y, opt)
				}
			} else {
				for i := 0; i < 3; i++ {
					c.Evaluate(x, y)
				}
			}
		}(w)
	}
	wg.Wait()
	if !sameWeights(before, m) {
		t.Fatal("concurrent clone training mutated the shared global model")
	}
	for _, p := range m.Params() {
		if p.Shared() {
			t.Fatal("global model still shared after all clones released")
		}
	}
}

// TestTransformedCloneCOW checks that widen/deepen on a derived child
// (which replaces some weight tensors and lazily shares the rest) never
// writes through to the parent.
func TestTransformedCloneCOW(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	spec := cowSpecs()[0]
	m := spec.BuildScoped(rng, NewIDGen())
	before := weightsOf(m)
	child := m.Derive(3)
	child.WidenCell(0, 2, rng)
	child.DeepenCell(1)
	x, y := probeFor(spec, rng, 4)
	opt := nn.NewSGD(0.1)
	for i := 0; i < 3; i++ {
		child.TrainStep(x, y, opt)
	}
	if !sameWeights(before, m) {
		t.Fatal("transforming/training a derived child mutated the parent")
	}
}

// BenchmarkClone measures the cost of the round loop's per-client model
// clone — O(headers) under COW.
func BenchmarkClone(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	spec := Spec{Family: "dense", Input: []int{512}, Hidden: []int{512, 512}, Classes: 16}
	m := spec.BuildScoped(rng, NewIDGen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.Clone()
		c.Release()
	}
}
