package tensor

import (
	"math/rand"
	"sync"
	"testing"
)

// snapshotBytes captures a tensor's contents for byte-identity checks.
func snapshotBytes(t *Tensor) []Float {
	out := make([]Float, len(t.Data))
	copy(out, t.Data)
	return out
}

func identical(a []Float, t *Tensor) bool {
	if len(a) != len(t.Data) {
		return false
	}
	for i, v := range a {
		if v != t.Data[i] {
			return false
		}
	}
	return true
}

func randomTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	t.RandNormal(rng, 1)
	return t
}

// TestLazyCloneAliasesUntilWrite pins the core COW contract: a lazy
// clone aliases the parent's buffer, and every mutating entry point
// detaches exactly the written side, leaving the other byte-identical.
func TestLazyCloneAliasesUntilWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mutations := []struct {
		name string
		do   func(x *Tensor)
	}{
		{"Set", func(x *Tensor) { x.Set(1, 2, 42) }},
		{"Fill", func(x *Tensor) { x.Fill(3) }},
		{"Zero", func(x *Tensor) { x.Zero() }},
		{"Scale", func(x *Tensor) { x.Scale(2) }},
		{"AddScaled", func(x *Tensor) { x.AddScaled(New(x.Shape...), 1) }},
		{"RandNormal", func(x *Tensor) { x.RandNormal(rand.New(rand.NewSource(9)), 1) }},
		{"EnsureOwnedRaw", func(x *Tensor) { x.EnsureOwned(); x.Data[0] += 5 }},
		{"EnsureOwnedDiscard", func(x *Tensor) { x.EnsureOwnedDiscard(); x.Fill(9) }},
		{"MatMulIntoDst", func(x *Tensor) {
			a, b := randomTensor(rng, 4, 4), randomTensor(rng, 4, 5)
			MatMulInto(x, a, b)
		}},
		{"AddScaledInto", func(x *Tensor) {
			a, b := randomTensor(rng, 4, 5), randomTensor(rng, 4, 5)
			AddScaledInto(x, a, b, 0.5)
		}},
		{"SoftmaxInto", func(x *Tensor) { SoftmaxInto(x, randomTensor(rng, 4, 5)) }},
		{"AddBiasReluRowsAct", func(x *Tensor) { AddBiasReluRows(x, randomTensor(rng, 4, 5), randomTensor(rng, 5)) }},
		{"ReluMask", func(x *Tensor) { ReluMask(x, randomTensor(rng, 4, 5)) }},
		{"ReluMaskIntoDst", func(x *Tensor) { ReluMaskInto(x, randomTensor(rng, 4, 5), randomTensor(rng, 4, 5)) }},
		{"AddBiasRows", func(x *Tensor) { AddBiasRows(x, randomTensor(rng, 5)) }},
	}
	for _, mut := range mutations {
		t.Run("clone-writes/"+mut.name, func(t *testing.T) {
			parent := randomTensor(rng, 4, 5)
			want := snapshotBytes(parent)
			clone := parent.LazyClone()
			if !clone.SharesBufferWith(parent) {
				t.Fatal("LazyClone must alias the parent buffer")
			}
			mut.do(clone)
			if !identical(want, parent) {
				t.Fatalf("mutating the clone via %s changed the parent", mut.name)
			}
		})
		t.Run("parent-writes/"+mut.name, func(t *testing.T) {
			parent := randomTensor(rng, 4, 5)
			clone := parent.LazyClone()
			want := snapshotBytes(clone)
			mut.do(parent)
			if !identical(want, clone) {
				t.Fatalf("mutating the parent via %s changed the clone", mut.name)
			}
		})
	}
}

// TestEnsureOwnedSoleReferent checks the no-copy fast path: once every
// other sharer has detached or released, the survivor writes in place.
func TestEnsureOwnedSoleReferent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	parent := randomTensor(rng, 8)
	clone := parent.LazyClone()
	clone.Release()
	buf := &parent.Data[0]
	parent.EnsureOwned()
	if &parent.Data[0] != buf {
		t.Error("sole referent must reclaim its buffer without copying")
	}
	if parent.Shared() {
		t.Error("parent must no longer report as shared")
	}
}

// TestReleasePoisonsHeader checks Release drops the buffer reference and
// nils Data so use-after-release fails loudly.
func TestReleasePoisonsHeader(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	parent := randomTensor(rng, 8)
	want := snapshotBytes(parent)
	clone := parent.LazyClone()
	clone.Release()
	if clone.Data != nil {
		t.Error("released header must have nil Data")
	}
	if !identical(want, parent) {
		t.Error("releasing a clone must not affect the parent")
	}
}

// TestCloneOfCloneChain checks COW transitivity: grandchild clones share
// one buffer, and each write detaches only the writer.
func TestCloneOfCloneChain(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomTensor(rng, 6)
	want := snapshotBytes(a)
	b := a.LazyClone()
	c := b.LazyClone()
	if !c.SharesBufferWith(a) {
		t.Fatal("clone-of-clone must alias the root buffer")
	}
	b.Fill(7)
	c.Scale(3)
	if !identical(want, a) {
		t.Error("root changed after descendant writes")
	}
	for i := range b.Data {
		if b.Data[i] != 7 {
			t.Fatal("b write lost")
		}
		if c.Data[i] != want[i]*3 {
			t.Fatal("c write lost")
		}
	}
}

// TestLazyCloneZeroBufferAllocs asserts the tentpole invariant at the
// tensor level: cloning is O(header) regardless of buffer size.
func TestLazyCloneZeroBufferAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	big := randomTensor(rng, 512, 512) // 1 MiB buffer
	sink := make([]*Tensor, 0, 64)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = append(sink[:0], big.LazyClone())
		}
	})
	if bpo := res.AllocedBytesPerOp(); bpo > 1024 {
		t.Errorf("LazyClone allocates %d B/op, want header-sized (<= 1024)", bpo)
	}
	_ = sink
}

// TestConcurrentCloneAndMutate is the COW race test: many goroutines
// lazily clone the same parent and train-like-mutate their clones while
// other goroutines take read-only clones. Run under -race (the CI race
// job does), this exercises the CAS install path of shareState and the
// concurrent unshare paths of EnsureOwned.
func TestConcurrentCloneAndMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	parent := randomTensor(rng, 64, 64)
	want := snapshotBytes(parent)
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				c := parent.LazyClone()
				if w%2 == 0 {
					// Writer: mutate the clone, verify divergence stays local.
					c.Scale(float64(w + 2))
					c.Release()
				} else {
					// Reader: verify the snapshot view, then release.
					if c.Data[0] != want[0] {
						panic("reader observed a mutated shared buffer")
					}
					c.Release()
				}
			}
		}(w)
	}
	wg.Wait()
	if !identical(want, parent) {
		t.Fatal("parent changed under concurrent clone/mutate")
	}
	parent.EnsureOwned()
	if parent.Shared() {
		t.Fatal("all clones released; parent must be exclusively owned again")
	}
}
