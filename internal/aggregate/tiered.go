package aggregate

import (
	"fmt"

	"fedtrans/internal/model"
)

// Aggregator is the accumulator surface the round loop drives: fold
// updates as they arrive, then finalize per model — or abort — at the
// round boundary. It is implemented by the single-tier StreamingFedAvg
// and the two-tier TieredFedAvg.
type Aggregator interface {
	Add(dst *model.Model, u Update) error
	Updates(modelID int) int
	Finalize(dst *model.Model) (meanLoss float64, samples int, ok bool)
	Abort()
}

var (
	_ Aggregator = (*StreamingFedAvg)(nil)
	_ Aggregator = (*TieredFedAvg)(nil)
)

// TieredFedAvg is hierarchical two-tier streaming FedAvg: E edge
// aggregators each own a disjoint, contiguous, shard-aligned slice of
// every model's flat parameter space (1/E of the accumulator memory),
// and Finalize merges them into a full-space root in fixed ascending
// edge order before the averaged write.
//
// Every committed update folds into every edge's owned slice, so the
// per-position add sequence on each edge is exactly the one single-tier
// aggregation runs over that position. Because slices are disjoint, the
// merged root sum — each position is one edge's partial sum added to
// zero — is bit-identical to the single-tier accumulator for every
// window and staleness setting, which keeps the repository's
// serial ≡ parallel ≡ single-tier determinism guarantee intact. The
// scalar totals (weight, loss, update count) are tracked once, on
// edge 0.
//
// Like StreamingFedAvg, a TieredFedAvg is not goroutine-safe and is
// reusable across rounds. Nothing is in flight at a round boundary, so
// checkpoints carry no trace of the edge topology and a run may resume
// under a different edge count and stay byte-identical.
type TieredFedAvg struct {
	edges []*StreamingFedAvg
	root  *StreamingFedAvg
}

// NewTiered returns a two-tier aggregator with n edge aggregators
// (clamped to ≥ 1) over the default shard width.
func NewTiered(n int) *TieredFedAvg { return NewTieredSharded(DefaultShardSize, n) }

// NewTieredSharded returns a two-tier aggregator with n edge
// aggregators over the given shard width.
func NewTieredSharded(shardSize, n int) *TieredFedAvg {
	if n < 1 {
		n = 1
	}
	t := &TieredFedAvg{root: NewStreamingSharded(shardSize)}
	for e := 0; e < n; e++ {
		t.edges = append(t.edges, NewStreamingEdge(shardSize, e, n))
	}
	return t
}

// Add validates one update (once, on edge 0's accumulator) and
// folds it into every edge's owned slice. See StreamingFedAvg.Add for
// the error contract.
func (t *TieredFedAvg) Add(dst *model.Model, u Update) error {
	a0 := t.edges[0].acc(dst)
	if err := a0.validate(u.Weights); err != nil {
		return err
	}
	w := sampleWeight(u.Samples) * StalenessDiscount(u.Staleness)
	a0.weight += w
	a0.lossSum += u.Loss * w
	a0.count++
	for _, e := range t.edges {
		e.fold(e.acc(dst), w, u.Weights)
	}
	return nil
}

// Updates returns how many updates have been folded for the model this
// round (tracked on edge 0).
func (t *TieredFedAvg) Updates(modelID int) int { return t.edges[0].Updates(modelID) }

// Finalize merges every edge's owned slice into the root — fixed
// ascending edge order — then runs the single-tier averaged write and
// reset there. Edge accumulators for the model are reset by the merge.
func (t *TieredFedAvg) Finalize(dst *model.Model) (meanLoss float64, samples int, ok bool) {
	if t.edges[0].Updates(dst.ID) == 0 {
		return 0, 0, false
	}
	for _, e := range t.edges {
		if err := t.root.MergeFrom(dst, e); err != nil {
			// Root and edges share one shard width, so edge ranges lie
			// inside the root's full space by construction.
			panic(fmt.Sprintf("aggregate: tiered merge: %v", err))
		}
	}
	return t.root.Finalize(dst)
}

// Abort discards every tier's in-flight updates without touching model
// weights. Edge accumulators are reset unconditionally: edges ≥ 1 carry
// nonzero sums at count == 0 (the scalars live on edge 0), so the
// count-guarded StreamingFedAvg.Abort would leave them poisoned.
func (t *TieredFedAvg) Abort() {
	for _, e := range t.edges {
		for _, a := range e.accs {
			a.reset()
		}
	}
	t.root.Abort()
}
