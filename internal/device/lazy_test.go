package device

import (
	"math/rand"
	"sync"
	"testing"
)

// TestLazyTraceBitIdentical pins the generative-trace guarantee: At(i)
// on a lazy trace returns exactly the device NewTrace materializes at
// index i, for every index and in any access order.
func TestLazyTraceBitIdentical(t *testing.T) {
	cfg := TraceConfig{N: 500, MinCapacityMACs: 1e4, MaxCapacityMACs: 32e4, Seed: 42}
	mat := NewTrace(cfg)
	lazy := NewTraceLazy(cfg)
	if lazy.Len() != mat.Len() {
		t.Fatalf("Len = %d, want %d", lazy.Len(), mat.Len())
	}
	for i := mat.Len() - 1; i >= 0; i-- {
		got, want := lazy.At(i), mat.Devices[i]
		if got != want {
			t.Fatalf("device %d: lazy %+v != materialized %+v", i, got, want)
		}
	}
	if lazy.Disparity() != mat.Disparity() {
		t.Errorf("disparity %v != %v", lazy.Disparity(), mat.Disparity())
	}
	if lazy.TrainingTime(17, 1e4, 2, 8, 1000) != mat.TrainingTime(17, 1e4, 2, 8, 1000) {
		t.Errorf("training time diverges")
	}
}

// TestLazyTraceConcurrentAt pins that the pooled-RNG synthesis path is
// safe and correct under concurrent access.
func TestLazyTraceConcurrentAt(t *testing.T) {
	cfg := TraceConfig{N: 200, MinCapacityMACs: 1e4, MaxCapacityMACs: 32e4, Seed: 5}
	mat := NewTrace(cfg)
	lazy := NewTraceLazy(cfg)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i := 0; i < lazy.Len(); i++ {
					if lazy.At(i) != mat.Devices[i] {
						t.Errorf("worker %d: device %d diverges", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCapacityBound pins the population-independent capacity ceiling:
// generated traces (lazy or materialized) report the configured maximum,
// hand-built traces fall back to the empirical scan, and every
// synthesized device stays at or below the bound.
func TestCapacityBound(t *testing.T) {
	cfg := TraceConfig{N: 300, MinCapacityMACs: 1e4, MaxCapacityMACs: 32e4, Seed: 8}
	mat := NewTrace(cfg)
	lazy := NewTraceLazy(cfg)
	if mat.CapacityBound() != cfg.MaxCapacityMACs || lazy.CapacityBound() != cfg.MaxCapacityMACs {
		t.Fatalf("generated bounds %v / %v, want %v",
			mat.CapacityBound(), lazy.CapacityBound(), cfg.MaxCapacityMACs)
	}
	for i := 0; i < mat.Len(); i++ {
		if c := mat.At(i).CapacityMACs; c > cfg.MaxCapacityMACs {
			t.Fatalf("device %d capacity %v exceeds bound", i, c)
		}
	}
	hand := &Trace{Devices: []Device{{CapacityMACs: 7}, {CapacityMACs: 11}, {CapacityMACs: 3}}}
	if got := hand.CapacityBound(); got != 11 {
		t.Errorf("hand-built bound = %v, want 11", got)
	}
}

// TestTraceMatchesMathRandStreams pins the streams themselves, not only
// lazy ≡ materialized (both run on xrand): device i is what math/rand's
// own source seeded with deviceSeed(i) produces.
func TestTraceMatchesMathRandStreams(t *testing.T) {
	cfg := normalize(TraceConfig{N: 300, MinCapacityMACs: 1e4, MaxCapacityMACs: 32e4, Seed: 42})
	lazy := NewTraceLazy(cfg)
	std := rand.New(rand.NewSource(0))
	for i := 0; i < cfg.N; i++ {
		if got, want := lazy.At(i), synthDevice(&cfg, std, i); got != want {
			t.Fatalf("device %d: %+v, math/rand stream gives %+v", i, got, want)
		}
	}
}

// TestLazyAtAllocFree pins the steady-state cost the round loop pays
// three times per committed update: no allocation. AllocsPerRun reports
// whole allocations per call, so the rare pool miss (a GC emptying the
// pool; the race detector dropping a Put) does not register.
func TestLazyAtAllocFree(t *testing.T) {
	lazy := NewTraceLazy(TraceConfig{N: 100_000, MinCapacityMACs: 1e4, MaxCapacityMACs: 32e4, Seed: 7})
	i, sum := 0, 0.0
	if a := testing.AllocsPerRun(1000, func() {
		i = (i + 7919) % lazy.Len()
		sum += lazy.At(i).CapacityMACs
	}); a != 0 {
		t.Errorf("generative Trace.At: %v allocs per call, want 0", a)
	}
	if sum == 0 {
		t.Error("no device synthesized")
	}
}
