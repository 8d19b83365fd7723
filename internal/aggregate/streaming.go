package aggregate

import (
	"errors"
	"fmt"
	"math"

	"fedtrans/internal/model"
	"fedtrans/internal/tensor"
)

// ErrUpdateShape reports an update whose tensors do not match the
// destination model's parameters.
var ErrUpdateShape = errors.New("aggregate: update does not match model parameters")

// ErrNonFinite reports an update carrying NaN or ±Inf values. One
// non-finite scalar folded into a float64 accumulator poisons the whole
// round's average, so such updates are rejected atomically at the
// accumulator boundary, exactly like shape mismatches.
var ErrNonFinite = errors.New("aggregate: non-finite value in update")

// StreamingFedAvg is the sample-weighted FedAvg of the Model Aggregator
// restructured as a streaming reduction: client updates are folded into
// a per-model float64 accumulator the moment they arrive and never
// retained, so the coordinator's peak memory is O(models × params) — the
// accumulators, one float64 slice per parameter tensor — instead of
// O(clients × model bytes) for a buffered gather-then-reduce round.
//
// Determinism: each Add folds one update in one loop on its caller, and
// every parameter entry gains its contributions in Add-call order. As
// long as the caller Adds updates in a deterministic order — the round
// engine folds them in its fold order, selection order when synchronous
// and (arrival, seq) when asynchronous, both fixed before any training
// result is read — the float64 sums, and therefore the finalized
// weights, are byte-identical regardless of scheduling, and identical to
// the buffered FedAvg over the same batch.
//
// It is the round engine's only accumulator: the paper's Model
// Aggregator has no hierarchy.
//
// The aggregator is not goroutine-safe: Add/Finalize must be called from
// one goroutine (the runtime calls them from the completion stream's
// consumer). It is reusable: Finalize resets the model's accumulator for
// the next round while keeping the buffers allocated.
type StreamingFedAvg struct {
	accs map[int]*modelAcc
}

// modelAcc is one model's accumulator state.
type modelAcc struct {
	params  []*tensor.Tensor
	sum     [][]float64 // weighted sums, sum[i] parallel to params[i].Data
	weight  float64     // Σ sample weights
	lossSum float64     // Σ loss × weight
	count   int         // updates folded this round
}

// NewStreaming returns an empty streaming aggregator.
func NewStreaming() *StreamingFedAvg {
	return &StreamingFedAvg{accs: make(map[int]*modelAcc)}
}

// NewTiered returns NewStreaming(): in one process a hierarchy of edge
// accumulators computes the same sums as one accumulator.
//
// Deprecated: no effect; n is ignored. Use NewStreaming.
func NewTiered(n int) *StreamingFedAvg { return NewStreaming() }

// acc returns (creating on first use) the accumulator for dst. The
// accumulator buffers survive Finalize, so steady-state rounds allocate
// nothing here.
func (s *StreamingFedAvg) acc(dst *model.Model) *modelAcc {
	a := s.accs[dst.ID]
	if a == nil {
		params := dst.Params()
		a = &modelAcc{params: params, sum: make([][]float64, len(params))}
		for i, p := range params {
			a.sum[i] = make([]float64, p.Len())
		}
		s.accs[dst.ID] = a
	}
	return a
}

// sampleWeight mirrors buffered FedAvg: non-positive sample counts fold
// with weight 1 so a malformed client cannot zero the denominator.
func sampleWeight(samples int) float64 {
	if samples <= 0 {
		return 1
	}
	return float64(samples)
}

// StalenessDiscount is the FedBuff down-weighting 1/√(1+s) applied to an
// update that arrives s server rounds after its model version was
// dispatched (Nguyen et al., AISTATS 2022). s ≤ 0 returns exactly 1, so
// synchronous folds are bit-identical to the undiscounted path.
func StalenessDiscount(s int) float64 {
	if s <= 0 {
		return 1
	}
	return 1 / math.Sqrt(1+float64(s))
}

// validate checks an update's arity, per-tensor lengths, and value
// finiteness against the destination parameters before any folding, so
// a malformed update is rejected atomically (no partial accumulation).
func (a *modelAcc) validate(weights []*tensor.Tensor) error {
	if len(weights) != len(a.params) {
		return fmt.Errorf("%w: %d tensors, want %d", ErrUpdateShape, len(weights), len(a.params))
	}
	for i, t := range weights {
		if t == nil || t.Len() != a.params[i].Len() {
			return fmt.Errorf("%w: tensor %d length mismatch", ErrUpdateShape, i)
		}
		for _, v := range t.Data {
			// v-v is 0 for every finite v and NaN for NaN and ±Inf: one
			// branchless probe covers both non-finite classes.
			if v-v != 0 {
				return fmt.Errorf("%w: tensor %d", ErrNonFinite, i)
			}
		}
	}
	return nil
}

// Add folds one client update for dst into its accumulator. The
// update's weight tensors are only read — the caller may release or
// reuse them as soon as Add returns, which is what collapses the round
// loop's peak memory. Malformed updates (tensor count or length
// mismatch) are rejected with ErrUpdateShape and leave the accumulator
// untouched.
func (s *StreamingFedAvg) Add(dst *model.Model, u Update) error {
	a := s.acc(dst)
	if err := a.validate(u.Weights); err != nil {
		return err
	}
	w := sampleWeight(u.Samples) * StalenessDiscount(u.Staleness)
	a.weight += w
	a.lossSum += u.Loss * w
	a.count++
	for i, t := range u.Weights {
		sum := a.sum[i][:len(t.Data)]
		for j, v := range t.Data {
			sum[j] += float64(v) * w
		}
	}
	return nil
}

// Updates returns how many updates have been folded for the model this
// round.
func (s *StreamingFedAvg) Updates(modelID int) int {
	if a := s.accs[modelID]; a != nil {
		return a.count
	}
	return 0
}

// Finalize divides the model's accumulator by the total sample weight and
// writes the averaged weights into the destination parameters (detaching
// COW-shared buffers with EnsureOwnedDiscard, exactly like buffered
// FedAvg), then resets the accumulator — zeroing in place, keeping the
// buffer — for the next round. It returns the weighted mean training
// loss and total sample count; with no folded updates it leaves the
// model unchanged and returns ok=false.
func (s *StreamingFedAvg) Finalize(dst *model.Model) (meanLoss float64, samples int, ok bool) {
	a := s.accs[dst.ID]
	if a == nil || a.count == 0 {
		return 0, 0, false
	}
	inv := 1.0 / a.weight
	writeMean(a.params, a.sum, inv)
	meanLoss = a.lossSum * inv
	samples = int(a.weight)
	a.reset()
	return meanLoss, samples, true
}

// reset zeroes the accumulator in place for the next round.
func (a *modelAcc) reset() {
	for _, sum := range a.sum {
		clear(sum)
	}
	a.weight, a.lossSum = 0, 0
	a.count = 0
}

// Abort discards every model's in-flight updates — zeroing the
// accumulators in place, keeping the buffers — without touching model
// weights. Used when a round fails its quorum: the partial averages
// must not leak into the next round.
func (s *StreamingFedAvg) Abort() {
	for _, a := range s.accs {
		if a.count > 0 {
			a.reset()
		}
	}
}
