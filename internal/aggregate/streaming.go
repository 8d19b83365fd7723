package aggregate

import (
	"errors"
	"fmt"
	"math"

	"fedtrans/internal/model"
	"fedtrans/internal/par"
	"fedtrans/internal/tensor"
)

// DefaultShardSize is the accumulator shard width in scalar parameters.
// 16384 float64 accumulator entries are 128 KiB — large enough that the
// per-shard bookkeeping is noise, small enough that folding one update
// parallelizes across the worker pool for the larger suite members.
const DefaultShardSize = 16384

// ErrUpdateShape reports an update whose tensors do not match the
// destination model's parameters.
var ErrUpdateShape = errors.New("aggregate: update does not match model parameters")

// ErrNonFinite reports an update carrying NaN or ±Inf values. One
// non-finite scalar folded into a float64 accumulator poisons the whole
// round's average, so such updates are rejected atomically at the
// accumulator boundary, exactly like shape mismatches.
var ErrNonFinite = errors.New("aggregate: non-finite value in update")

// StreamingFedAvg is the sample-weighted FedAvg of the Model Aggregator
// restructured as a streaming, sharded reduction: client updates are
// folded into a per-model float64 accumulator the moment they arrive and
// never retained, so the coordinator's peak memory is O(models × shards)
// — the accumulators — instead of O(clients × model bytes) for a
// buffered gather-then-reduce round.
//
// Determinism: the accumulator for a model is a flat float64 array split
// into fixed-width shards. Each Add folds one update across all shards
// (in parallel when workers are free); within a shard the contributions
// are applied in Add-call order. As long as the caller Adds updates in a
// deterministic order — the round engine folds them in its fold order,
// selection order when synchronous and (arrival, seq) when
// asynchronous, both fixed before any training result is read — the
// float64 sums, and therefore the finalized weights, are byte-identical
// regardless of worker scheduling, and identical to the buffered FedAvg
// over the same batch.
//
// It is the round engine's only accumulator: the paper's Model
// Aggregator has no hierarchy.
//
// The aggregator is not goroutine-safe: Add/Finalize must be called from
// one goroutine (the runtime calls them from the completion stream's
// consumer). It is reusable: Finalize resets the model's accumulator for
// the next round while keeping the buffer allocated.
type StreamingFedAvg struct {
	shardSize int
	accs      map[int]*modelAcc
}

// modelAcc is one model's accumulator state.
type modelAcc struct {
	params  []*tensor.Tensor
	offsets []int     // offsets[i] is params[i]'s start in the flat space
	total   int       // total scalar parameters
	sum     []float64 // flat weighted sum, len == total
	weight  float64   // Σ sample weights
	lossSum float64   // Σ loss × weight
	count   int       // updates folded this round
}

// NewStreaming returns an empty streaming aggregator with the default
// shard width.
func NewStreaming() *StreamingFedAvg { return NewStreamingSharded(DefaultShardSize) }

// NewStreamingSharded returns an empty streaming aggregator whose
// accumulators are reduced in shards of the given width (DefaultShardSize
// when < 1).
func NewStreamingSharded(shardSize int) *StreamingFedAvg {
	if shardSize < 1 {
		shardSize = DefaultShardSize
	}
	return &StreamingFedAvg{shardSize: shardSize, accs: make(map[int]*modelAcc)}
}

// NewTiered returns NewStreaming(): in one process a hierarchy of edge
// accumulators computes the same sums as one accumulator.
//
// Deprecated: no effect; n is ignored. Use NewStreaming.
func NewTiered(n int) *StreamingFedAvg { return NewStreaming() }

// acc returns (creating on first use) the accumulator for dst. The
// accumulator buffer survives Finalize, so steady-state rounds allocate
// nothing here.
func (s *StreamingFedAvg) acc(dst *model.Model) *modelAcc {
	a := s.accs[dst.ID]
	if a == nil {
		params := dst.Params()
		a = &modelAcc{params: params, offsets: make([]int, len(params))}
		for i, p := range params {
			a.offsets[i] = a.total
			a.total += p.Len()
		}
		a.sum = make([]float64, a.total)
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

// forShards runs fold(lo, hi) over every shard of the accumulator's
// flat space, in parallel across idle workers. Shards are disjoint, and
// each sees exactly one contribution per Add call, so parallel shard
// reduction preserves the deterministic per-shard fold order.
func (s *StreamingFedAvg) forShards(a *modelAcc, fold func(lo, hi int)) {
	ns := (a.total + s.shardSize - 1) / s.shardSize
	if ns <= 1 {
		fold(0, a.total)
		return
	}
	par.ForN(ns, func(i int) {
		lo := i * s.shardSize
		fold(lo, min(lo+s.shardSize, a.total))
	})
}

// forSegments walks the parameter tensors overlapping flat range
// [lo, hi), invoking seg with the tensor index and the tensor-local and
// flat-space bounds of the overlap.
func (a *modelAcc) forSegments(lo, hi int, seg func(ti, tLo, tHi, flat int)) {
	for i, p := range a.params {
		start := a.offsets[i]
		end := start + p.Len()
		if end <= lo {
			continue
		}
		if start >= hi {
			return
		}
		sLo, sHi := lo, hi
		if start > sLo {
			sLo = start
		}
		if end < sHi {
			sHi = end
		}
		seg(i, sLo-start, sHi-start, sLo)
	}
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
	s.fold(a, w, u.Weights)
	return nil
}

// fold accumulates one validated update over the flat space.
func (s *StreamingFedAvg) fold(a *modelAcc, w float64, weights []*tensor.Tensor) {
	if a.total <= s.shardSize {
		// Small model: fold directly, no closure or fan-out overhead —
		// this is the per-participant hot path of massive rounds.
		a.foldDense(weights, w, 0, a.total)
		return
	}
	s.forShards(a, func(lo, hi int) { a.foldDense(weights, w, lo, hi) })
}

// foldDense accumulates weight×update over flat range [lo, hi).
func (a *modelAcc) foldDense(weights []*tensor.Tensor, w float64, lo, hi int) {
	a.forSegments(lo, hi, func(ti, tLo, tHi, flat int) {
		src := weights[ti].Data[tLo:tHi]
		acc := a.sum[flat : flat+len(src)]
		for j, v := range src {
			acc[j] += float64(v) * w
		}
	})
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
	// Detach every parameter before the (possibly parallel) averaged
	// write: a COW detach swaps the Data slice, which must not race with
	// another shard writing a different segment of the same tensor.
	for _, p := range a.params {
		p.EnsureOwnedDiscard()
	}
	s.forShards(a, func(lo, hi int) {
		a.forSegments(lo, hi, func(ti, tLo, tHi, flat int) {
			dstSeg := a.params[ti].Data[tLo:tHi]
			src := a.sum[flat : flat+len(dstSeg)]
			for j := range dstSeg {
				dstSeg[j] = tensor.Float(src[j] * inv)
			}
		})
	})
	meanLoss = a.lossSum * inv
	samples = int(a.weight)
	a.reset()
	return meanLoss, samples, true
}

// reset zeroes the accumulator in place for the next round.
func (a *modelAcc) reset() {
	for i := range a.sum {
		a.sum[i] = 0
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
