package aggregate

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"fedtrans/internal/model"
	"fedtrans/internal/tensor"
)

func randomUpdate(m *model.Model, rng *rand.Rand, samples int) Update {
	w := m.CopyWeights()
	for _, t := range w {
		t.EnsureOwned()
		for j := range t.Data {
			t.Data[j] = tensor.Float(rng.NormFloat64())
		}
	}
	return Update{ModelID: m.ID, Weights: w, Samples: samples, Loss: rng.Float64() * 3}
}

// bufferedFedAvg is the gather-then-reduce FedAvg the streaming
// accumulator must match bit for bit: it holds the whole batch, then
// sums each entry's weighted contributions in float64 in batch order and
// scales the sum by the reciprocal of the total weight.
func bufferedFedAvg(dst *model.Model, batch []Update) (meanLoss float64, samples int) {
	w := make([]float64, len(batch))
	total, lossSum := 0.0, 0.0
	for k, u := range batch {
		w[k] = sampleWeight(u.Samples) * StalenessDiscount(u.Staleness)
		total += w[k]
		lossSum += u.Loss * w[k]
	}
	inv := 1 / total
	for i, p := range dst.Params() {
		p.EnsureOwned()
		for j := range p.Data {
			sum := 0.0
			for k, u := range batch {
				sum += float64(u.Weights[i].Data[j]) * w[k]
			}
			p.Data[j] = tensor.Float(sum * inv)
		}
	}
	return lossSum * inv, int(total)
}

// TestStreamingMatchesBufferedFedAvg pins the core equivalence: folding
// updates one at a time through the accumulator produces bit-identical
// weights, loss, and sample count to the buffered batch average, on a
// small model and on the largest one the traffic folds (the femnist
// suite's 17 712-param member), with a zero-sample and a stale update in
// the batch.
func TestStreamingMatchesBufferedFedAvg(t *testing.T) {
	for _, c := range []struct {
		spec   model.Spec
		params int64
	}{
		{model.Spec{Family: "dense", Input: []int{4}, Hidden: []int{5, 4}, Classes: 2}, 59},
		{model.Spec{Family: "dense", Input: []int{64}, Hidden: []int{64, 64, 64, 32, 64}, Classes: 16}, 17712},
	} {
		build := func() *model.Model {
			return c.spec.BuildScoped(rand.New(rand.NewSource(1)), model.NewIDGen())
		}
		ma, mb := build(), build()
		if n := mb.ParamCount(); n != c.params {
			t.Fatalf("%v: %d params, want %d", c.spec.Hidden, n, c.params)
		}
		rng := rand.New(rand.NewSource(11))
		var batch []Update
		for i := 0; i < 7; i++ {
			batch = append(batch, randomUpdate(ma, rng, 1+i%3))
		}
		batch[2].Samples = 0 // folds with weight 1
		batch[4].Staleness = 2
		lossA, nA := bufferedFedAvg(ma, batch)

		s := NewStreaming()
		for _, u := range batch {
			if err := s.Add(mb, u); err != nil {
				t.Fatalf("%d params: Add: %v", c.params, err)
			}
		}
		if got := s.Updates(mb.ID); got != len(batch) {
			t.Fatalf("%d params: Updates = %d, want %d", c.params, got, len(batch))
		}
		lossB, nB, ok := s.Finalize(mb)
		if !ok || nA != nB || lossA != lossB {
			t.Fatalf("%d params: finalize (%v,%d,%v) != buffered (%v,%d)",
				c.params, lossB, nB, ok, lossA, nA)
		}
		pa, pb := ma.Params(), mb.Params()
		for i := range pa {
			for j := range pa[i].Data {
				if math.Float32bits(pa[i].Data[j]) != math.Float32bits(pb[i].Data[j]) {
					t.Fatalf("%d params: weight [%d][%d] %v != buffered %v",
						c.params, i, j, pb[i].Data[j], pa[i].Data[j])
				}
			}
		}
		if s.Updates(mb.ID) != 0 {
			t.Fatalf("%d params: accumulator not reset after Finalize", c.params)
		}
	}
}

func TestStreamingRejectsMalformedAtomically(t *testing.T) {
	model.ResetIDs()
	m := newModel(t, 3)
	s := NewStreaming()
	good := randomUpdate(m, rand.New(rand.NewSource(1)), 2)
	if err := s.Add(m, good); err != nil {
		t.Fatal(err)
	}
	before := slices.Concat(s.accs[m.ID].sum...)

	short := Update{ModelID: m.ID, Weights: good.Weights[:1], Samples: 1}
	if err := s.Add(m, short); !errors.Is(err, ErrUpdateShape) {
		t.Fatalf("short update err = %v, want ErrUpdateShape", err)
	}
	wrongLen := randomUpdate(m, rand.New(rand.NewSource(2)), 1)
	wrongLen.Weights[0] = tensor.New(1)
	if err := s.Add(m, wrongLen); !errors.Is(err, ErrUpdateShape) {
		t.Fatalf("wrong-length update err = %v, want ErrUpdateShape", err)
	}
	if err := s.Add(m, Update{ModelID: m.ID, Weights: []*tensor.Tensor{nil, nil, nil, nil}}); !errors.Is(err, ErrUpdateShape) {
		t.Fatal("nil tensors accepted")
	}
	if err := s.Add(m, Update{ModelID: m.ID, Samples: 1}); !errors.Is(err, ErrUpdateShape) {
		t.Fatalf("empty update err = %v, want ErrUpdateShape", err)
	}

	for i, v := range slices.Concat(s.accs[m.ID].sum...) {
		if v != before[i] {
			t.Fatal("malformed update partially folded")
		}
	}
	if got := s.Updates(m.ID); got != 1 {
		t.Fatalf("Updates = %d after rejected adds, want 1", got)
	}
}

func TestStreamingFinalizeEmpty(t *testing.T) {
	model.ResetIDs()
	m := newModel(t, 3)
	before := m.CopyWeights()
	s := NewStreaming()
	if _, _, ok := s.Finalize(m); ok {
		t.Fatal("ok on empty accumulator")
	}
	for i, p := range m.Params() {
		if !tensor.Equal(before[i], p, 0) {
			t.Fatal("empty finalize mutated the model")
		}
	}
	if s.Updates(m.ID) != 0 {
		t.Fatal("updates counted on an empty aggregator")
	}
}

// TestStreamingFinalizeDetachesCOW pins the COW-aware write: a snapshot
// taken before Finalize must keep its pre-aggregation contents.
func TestStreamingFinalizeDetachesCOW(t *testing.T) {
	model.ResetIDs()
	m := newModel(t, 3)
	snap := m.CopyWeights()
	orig := make([][]tensor.Float, len(snap))
	for i, p := range snap {
		orig[i] = append([]tensor.Float(nil), p.Data...)
	}
	s := NewStreaming()
	if err := s.Add(m, randomUpdate(m, rand.New(rand.NewSource(9)), 4)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Finalize(m); !ok {
		t.Fatal("finalize failed")
	}
	for i, p := range snap {
		for j := range p.Data {
			if p.Data[j] != orig[i][j] {
				t.Fatal("Finalize wrote through a COW snapshot")
			}
		}
	}
}

// TestStreamingConcurrentRoundsCOWStress is the -race stress test for
// the accumulator's COW-aware writes: many goroutines run streaming
// rounds against private clones of one shared suite, so every Finalize
// detach (EnsureOwnedDiscard) races — by construction, and safely —
// with other goroutines cloning and reading the same parent weights.
func TestStreamingConcurrentRoundsCOWStress(t *testing.T) {
	model.ResetIDs()
	parents := []*model.Model{newModel(t, 6), newModel(t, 6, 3)}
	const goroutines = 8
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for r := 0; r < rounds; r++ {
				for _, parent := range parents {
					// A fresh aggregator per clone: accumulators are keyed
					// by model ID, and every goroutine's clone of the same
					// parent shares that ID.
					s := NewStreaming()
					clone := parent.Clone() // COW-shares parent buffers
					for u := 0; u < 3; u++ {
						if err := s.Add(clone, randomUpdate(clone, rng, u)); err != nil {
							t.Error(err)
							return
						}
					}
					// Finalize detaches the clone's shared params while
					// other goroutines clone/read the same parents.
					if _, _, ok := s.Finalize(clone); !ok {
						t.Error("finalize failed under concurrency")
						return
					}
					for _, p := range clone.Params() {
						for _, v := range p.Data {
							if math.IsNaN(float64(v)) {
								t.Error("NaN after concurrent finalize")
								return
							}
						}
					}
					clone.Release()
				}
			}
		}(g)
	}
	wg.Wait()
	// Parents must be untouched: every write went to detached clones.
	for _, parent := range parents {
		for _, p := range parent.Params() {
			if p.Shared() {
				t.Error("released clones left the parent marked shared")
			}
		}
	}
}

// TestStreamingRejectsNonFiniteAtomically pins the accumulator-boundary
// guard: an update carrying NaN or ±Inf anywhere in its payload is
// rejected with ErrNonFinite before any folding, so a poisoned client
// cannot NaN the whole round's average.
func TestStreamingRejectsNonFiniteAtomically(t *testing.T) {
	model.ResetIDs()
	m := newModel(t, 3)
	s := NewStreaming()
	good := randomUpdate(m, rand.New(rand.NewSource(1)), 2)
	if err := s.Add(m, good); err != nil {
		t.Fatal(err)
	}
	before := slices.Concat(s.accs[m.ID].sum...)

	for _, bad := range []tensor.Float{
		tensor.Float(math.NaN()),
		tensor.Float(math.Inf(1)),
		tensor.Float(math.Inf(-1)),
	} {
		u := randomUpdate(m, rand.New(rand.NewSource(2)), 1)
		last := u.Weights[len(u.Weights)-1]
		last.Data[last.Len()-1] = bad
		if err := s.Add(m, u); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("payload %v: err = %v, want ErrNonFinite", bad, err)
		}
	}

	for i, v := range slices.Concat(s.accs[m.ID].sum...) {
		if v != before[i] {
			t.Fatal("non-finite update partially folded")
		}
	}
	if got := s.Updates(m.ID); got != 1 {
		t.Fatalf("Updates = %d after rejected adds, want 1", got)
	}

	// The surviving good update must finalize exactly as if the poisoned
	// ones never arrived.
	model.ResetIDs()
	ref := newModel(t, 3)
	sref := NewStreaming()
	if err := sref.Add(ref, good); err != nil {
		t.Fatal(err)
	}
	lossA, nA, _ := s.Finalize(m)
	lossB, nB, _ := sref.Finalize(ref)
	if lossA != lossB || nA != nB {
		t.Fatalf("finalize after rejects (%v,%d) != clean (%v,%d)", lossA, nA, lossB, nB)
	}
}

// TestStreamingAbortDiscardsRound pins quorum-abort semantics: Abort
// drops in-flight updates without touching weights, and the next round
// folds into a clean accumulator.
func TestStreamingAbortDiscardsRound(t *testing.T) {
	model.ResetIDs()
	m := newModel(t, 3)
	s := NewStreaming()
	wantW := make([][]tensor.Float, len(m.Params()))
	for i, p := range m.Params() {
		wantW[i] = append([]tensor.Float(nil), p.Data...)
	}
	rng := rand.New(rand.NewSource(4))
	if err := s.Add(m, randomUpdate(m, rng, 3)); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	if got := s.Updates(m.ID); got != 0 {
		t.Fatalf("Updates = %d after Abort, want 0", got)
	}
	if _, _, ok := s.Finalize(m); ok {
		t.Fatal("Finalize succeeded on an aborted round")
	}
	for i, p := range m.Params() {
		for j := range p.Data {
			if p.Data[j] != wantW[i][j] {
				t.Fatal("Abort modified model weights")
			}
		}
	}
	// The committed follow-up round must match a never-aborted aggregator.
	next := randomUpdate(m, rand.New(rand.NewSource(5)), 2)
	if err := s.Add(m, next); err != nil {
		t.Fatal(err)
	}
	model.ResetIDs()
	ref := newModel(t, 3)
	sref := NewStreaming()
	refU := next
	refU.ModelID = ref.ID
	if err := sref.Add(ref, refU); err != nil {
		t.Fatal(err)
	}
	lossA, nA, _ := s.Finalize(m)
	lossB, nB, _ := sref.Finalize(ref)
	if lossA != lossB || nA != nB {
		t.Fatalf("post-abort finalize (%v,%d) != clean (%v,%d)", lossA, nA, lossB, nB)
	}
}

// TestStalenessDiscountExactness pins the discount schedule: exactly 1
// (not merely close) for fresh updates so the synchronous path's bits
// are untouched, and 1/√(1+s) beyond.
func TestStalenessDiscountExactness(t *testing.T) {
	for _, s := range []int{0, -1, -5} {
		if d := StalenessDiscount(s); d != 1 {
			t.Errorf("StalenessDiscount(%d) = %v, want exactly 1", s, d)
		}
	}
	for _, s := range []int{1, 2, 3, 10} {
		want := 1 / math.Sqrt(1+float64(s))
		if d := StalenessDiscount(s); d != want {
			t.Errorf("StalenessDiscount(%d) = %v, want %v", s, d, want)
		}
	}
	if !(StalenessDiscount(2) < StalenessDiscount(1)) {
		t.Error("discount must decrease with staleness")
	}
}

// TestStreamingStaleUpdateDiscounted: a stale update's contribution to
// the weighted average must shrink by the discount, and a zero-staleness
// stream must be bit-identical to one that never set the field.
func TestStreamingStaleUpdateDiscounted(t *testing.T) {
	model.ResetIDs()
	rng := rand.New(rand.NewSource(21))
	spec := model.Spec{Family: "dense", Input: []int{6}, Hidden: []int{4}, Classes: 3}
	mk := func() *model.Model { return spec.Build(rand.New(rand.NewSource(1))) }

	fresh := mk()
	a := randomUpdate(fresh, rng, 10)
	b := randomUpdate(fresh, rng, 10)

	// Baseline: both fresh. Stale run: b folds at staleness 3.
	run := func(stale int) []float64 {
		model.ResetIDs()
		m := mk()
		s := NewStreaming()
		ua, ub := a, b
		ua.ModelID, ub.ModelID = m.ID, m.ID
		ub.Staleness = stale
		if err := s.Add(m, ua); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(m, ub); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := s.Finalize(m); !ok {
			t.Fatal("finalize reported an empty accumulator")
		}
		var out []float64
		for _, w := range m.Params() {
			for _, v := range w.Data {
				out = append(out, float64(v))
			}
		}
		return out
	}

	base := run(0)
	stale := run(3)

	// Recompute the expected stale average by hand from the raw updates.
	wA, wB := float64(10), float64(10)*StalenessDiscount(3)
	pa := flatParams(t, a)
	pb := flatParams(t, b)
	for i := range base {
		want := float64(tensor.Float((wA*pa[i] + wB*pb[i]) / (wA + wB)))
		if math.Abs(stale[i]-want) > 1e-12 {
			t.Fatalf("param %d: stale average %v, want %v", i, stale[i], want)
		}
	}

	// Zero staleness must be bit-identical to the pre-async semantics.
	again := run(0)
	for i := range base {
		if base[i] != again[i] {
			t.Fatalf("param %d: zero-staleness fold not deterministic", i)
		}
	}
}

func flatParams(t *testing.T, u Update) []float64 {
	t.Helper()
	var out []float64
	for _, w := range u.Weights {
		for _, v := range w.Data {
			out = append(out, float64(v))
		}
	}
	return out
}
