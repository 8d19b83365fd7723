package tensor

import "sync/atomic"

// Copy-on-write buffer sharing.
//
// A Tensor header normally owns its Data buffer exclusively. LazyClone
// breaks that 1:1 tie: the clone's header aliases the same buffer and
// both headers point at a shared cowState carrying the number of live
// headers. Reads stay zero-cost; every mutating entry point (the *Into
// kernels, Set/Fill/Scale/..., and the EnsureOwned calls sprinkled at
// raw-write sites outside this package) detaches the written header
// first — copying the buffer only when another header still references
// it. Cloning a model therefore costs O(headers), and weight buffers are
// physically copied only for the tensors a consumer actually writes.
//
// Concurrency: many goroutines may LazyClone the same parent tensor at
// once (the round loop and EvaluateAll both do), and each clone is then
// mutated by exactly one goroutine. shareState installs the cowState
// with a CAS so concurrent first-clones race safely, and EnsureOwned
// only writes in place when it can prove this header is the sole
// referent; when two sharers unshare concurrently each gets its own
// copy. Mutating a tensor while another goroutine clones *that same
// header* is an application-level race, exactly as it was before COW.

// cowState is the shared bookkeeping for one aliased buffer: the number
// of Tensor headers currently referencing it.
type cowState struct {
	refs atomic.Int64
}

// shareState returns the tensor's cowState, installing one (refs=1, this
// header) if the buffer is not shared yet. Safe for concurrent callers.
func (t *Tensor) shareState() *cowState {
	for {
		if s := t.cow.Load(); s != nil {
			return s
		}
		s := &cowState{}
		s.refs.Store(1)
		if t.cow.CompareAndSwap(nil, s) {
			return s
		}
	}
}

// LazyClone returns a copy-on-write clone: a fresh header aliasing t's
// buffer. The clone (and t itself, now that the buffer is shared) will
// copy the buffer on first mutation through a COW-aware entry point.
// Callers that write the returned tensor through raw Data index
// expressions must call EnsureOwned first.
func (t *Tensor) LazyClone() *Tensor {
	s := t.shareState()
	s.refs.Add(1)
	c := &Tensor{Shape: append([]int(nil), t.Shape...), Data: t.Data}
	c.cow.Store(s)
	return c
}

// detach is the one place the unshare refcount dance lives: it makes
// the header exclusively own a buffer, preserving the current contents
// when copyContents is set and otherwise detaching a shared tensor onto
// a fresh zeroed buffer without copying (for callers that fully
// overwrite). It reports whether the buffer came back freshly zeroed.
func (t *Tensor) detach(copyContents bool) (zeroed bool) {
	s := t.cow.Load()
	if s == nil {
		return false
	}
	if s.refs.Load() == 1 {
		// Sole referent: reclaim exclusive ownership without copying.
		t.cow.Store(nil)
		return false
	}
	nd := make([]Float, len(t.Data))
	if copyContents {
		copy(nd, t.Data)
	}
	t.Data = nd
	t.cow.Store(nil)
	s.refs.Add(-1)
	return !copyContents
}

// EnsureOwned makes the tensor's buffer exclusively owned by this
// header, copying it if any other header still shares it. It is a no-op
// (one atomic load) for unshared tensors, and must be called before any
// write that bypasses the package's mutating entry points. The header
// identity is preserved, so maps keyed by *Tensor (optimizer state,
// param caches) survive unsharing.
func (t *Tensor) EnsureOwned() { t.detach(true) }

// EnsureOwnedDiscard is EnsureOwned for callers about to overwrite every
// element: a shared tensor detaches onto a fresh zeroed buffer without
// copying the old contents, saving one full-buffer memcpy at
// full-overwrite sites (FedAvg, soft aggregation, SetWeights). After the
// call the contents are either unchanged (was unshared) or zero — the
// caller must write all elements.
func (t *Tensor) EnsureOwnedDiscard() { t.detach(false) }

// Release drops this header's interest in a shared buffer and poisons
// the header (Data set to nil) so accidental reuse fails loudly. Other
// headers sharing the buffer are unaffected; once the last sharer
// releases or unshares, the survivor writes in place again. Releasing an
// unshared tensor just drops its buffer reference.
func (t *Tensor) Release() {
	if s := t.cow.Load(); s != nil {
		t.cow.Store(nil)
		s.refs.Add(-1)
	}
	t.Data = nil
}

// Shared reports whether the buffer is currently referenced by more than
// one header — the observable COW invariant the aliasing tests assert.
func (t *Tensor) Shared() bool {
	s := t.cow.Load()
	return s != nil && s.refs.Load() > 1
}

// SharesBufferWith reports whether two headers alias the same underlying
// buffer (test helper for the aliasing property suite).
func (t *Tensor) SharesBufferWith(o *Tensor) bool {
	return len(t.Data) > 0 && len(o.Data) > 0 && &t.Data[0] == &o.Data[0]
}

// ShareFrom re-points this header at src's buffer as a copy-on-write
// sharer, reusing the header (and its Shape backing array) instead of
// allocating a fresh one the way LazyClone does. Any interest the header
// held in a previous buffer is dropped first, so a Released header can
// be re-armed in place — the primitive behind the round engine's version
// snapshots, which a ring slot re-arms for each new model version.
func (t *Tensor) ShareFrom(src *Tensor) {
	if s := t.cow.Load(); s != nil {
		t.cow.Store(nil)
		s.refs.Add(-1)
	}
	s := src.shareState()
	s.refs.Add(1)
	t.Shape = append(t.Shape[:0], src.Shape...)
	t.Data = src.Data
	t.cow.Store(s)
}
