// Package nn implements the from-scratch neural-network substrate FedTrans
// trains on: Cells (the paper's minimum unit of model transformation),
// manual backpropagation, losses, and optimizers. Only the Go standard
// library is used.
//
// A Cell owns its parameters and gradients. Forward must be called before
// Backward; Backward accumulates parameter gradients (callers zero them
// between steps) and returns the gradient with respect to the Cell input.
//
// The parameter gradients are the contract of Backward: every caller
// gets them, bit for bit the same. The returned input gradient is work
// done for whoever sits upstream, and a model's first cell has no one
// there. A caller in that position asks through BackwardParams, which
// takes the cell's ParamBackwarder path when it has one (the four
// parameterized families: same body, input-gradient products and scratch
// skipped) and otherwise falls back to Backward and drops the result, so
// a Cell that merely wraps another stays correct without knowing this.
package nn

import (
	"math/rand"

	"fedtrans/internal/tensor"
)

// Cell is the minimum component of a model architecture on which FedTrans
// performs transformation (§3 of the paper): a convolution block, a dense
// block, or an attention block.
type Cell interface {
	// Kind identifies the cell family ("dense", "conv2d", "attention",
	// "gap"). Kinds are stable strings used in specs and reports.
	Kind() string
	// Forward runs the cell on a batch and caches activations for Backward.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward consumes the gradient w.r.t. the cell output, accumulates
	// parameter gradients, and returns the gradient w.r.t. the input.
	// The accumulation must not depend on whether the caller reads the
	// returned tensor: a caller that will not read it may go through
	// BackwardParams instead, and only such a caller may skip it.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameter tensors (possibly empty).
	Params() []*tensor.Tensor
	// Grads returns gradient tensors aligned with Params, materializing
	// them (zero-filled) if a lazy Clone has not needed them yet.
	Grads() []*tensor.Tensor
	// Clone returns an independent copy: parameter buffers are shared
	// copy-on-write (tensor.LazyClone — a write through either side
	// unshares just the written tensor), gradients start logically zero
	// and materialize on first use, and activation caches are dropped.
	// Code that writes a cloned cell's weights through raw Data indexing
	// must call tensor.EnsureOwned on the tensor first.
	Clone() Cell
	// MACsPerSample estimates multiply-accumulate operations for one
	// forward pass of a single sample.
	MACsPerSample() float64
}

// ParamBackwarder is implemented by cells that can run Backward without
// its input-gradient half. BackwardParams must leave every gradient
// tensor exactly as Backward on the same cached Forward would.
type ParamBackwarder interface {
	BackwardParams(grad *tensor.Tensor)
}

// BackwardParams accumulates c's parameter gradients for the output
// gradient grad when no one will read the input gradient: through
// ParamBackwarder if c implements it, through Backward otherwise.
func BackwardParams(c Cell, grad *tensor.Tensor) {
	if p, ok := c.(ParamBackwarder); ok {
		p.BackwardParams(grad)
		return
	}
	c.Backward(grad)
}

// OutputWidener is implemented by cells whose output feature axis can be
// widened by duplicating units (Net2Wider). The mapping argument lists, for
// each post-widening unit, the pre-widening source unit it copies.
type OutputWidener interface {
	OutUnits() int
	WidenOutput(mapping []int)
}

// InputWidener is implemented by cells that can compensate a predecessor's
// output widening: new input unit j takes the weights of source unit
// mapping[j] divided by counts[mapping[j]] (the number of replicas), which
// preserves the function exactly for linear and convolutional operators.
type InputWidener interface {
	WidenInput(mapping []int, counts []int)
}

// SelfWidener is implemented by cells whose widening is internal and does
// not change the interface dimensionality (e.g. an attention block widening
// its feed-forward hidden layer).
type SelfWidener interface {
	WidenSelf(factor float64, rng *rand.Rand)
}

// IdentityInserter is implemented by cells that can manufacture a fresh
// identity-initialized cell of their own kind suitable for insertion
// directly after themselves (the paper's deepen operation).
type IdentityInserter interface {
	IdentityLike() Cell
}

// WidthTransparent marks cells (e.g. global average pooling) that forward
// their predecessor's feature axis unchanged, so a widening mapping passes
// through them to the next parameterized cell.
type WidthTransparent interface {
	WidthTransparent()
}

// ParamCount returns the total number of scalar parameters of a cell.
func ParamCount(c Cell) int64 { return CountParams(c.Params()) }

// CountParams returns the number of scalars in params. It counts from
// tensor shapes rather than buffer lengths, so size and byte accounting
// stay correct even on a model whose buffers have been COW-released
// (tensor.Release nils Data but keeps Shape).
func CountParams(params []*tensor.Tensor) int64 {
	var n int64
	for _, p := range params {
		e := int64(1)
		for _, d := range p.Shape {
			e *= int64(d)
		}
		n += e
	}
	return n
}

// ZeroGrads zeroes all gradient tensors of a cell.
func ZeroGrads(c Cell) {
	for _, g := range c.Grads() {
		g.Zero()
	}
}

// WidenMapping builds a Net2Wider duplication mapping from oldN units to
// newN units: the first oldN entries map to themselves and each extra entry
// copies a uniformly sampled existing unit. The returned counts[i] is the
// number of replicas of source unit i (>= 1).
func WidenMapping(oldN, newN int, rng *rand.Rand) (mapping []int, counts []int) {
	if newN < oldN {
		panic("nn: WidenMapping requires newN >= oldN")
	}
	mapping = make([]int, newN)
	counts = make([]int, oldN)
	for i := 0; i < oldN; i++ {
		mapping[i] = i
		counts[i] = 1
	}
	for i := oldN; i < newN; i++ {
		src := rng.Intn(oldN)
		mapping[i] = src
		counts[src]++
	}
	return mapping, counts
}
