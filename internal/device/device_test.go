package device

import (
	"math"
	"testing"
	"testing/quick"
)

func defaultTrace(n int, seed int64) *Trace {
	return NewTrace(TraceConfig{N: n, MinCapacityMACs: 1e3, MaxCapacityMACs: 32e3, Seed: seed})
}

func TestTraceSize(t *testing.T) {
	tr := defaultTrace(100, 1)
	if len(tr.Devices) != 100 {
		t.Fatalf("devices = %d", len(tr.Devices))
	}
}

func TestTraceCapacityBounds(t *testing.T) {
	tr := defaultTrace(500, 2)
	for i, d := range tr.Devices {
		if d.CapacityMACs < 1e3-1 || d.CapacityMACs > 32e3+1 {
			t.Fatalf("device %d capacity %.1f out of [1e3, 32e3]", i, d.CapacityMACs)
		}
		if d.ComputeMACsPerSec <= 0 || d.BandwidthBytesPerSec <= 0 {
			t.Fatalf("device %d has non-positive speed/bandwidth", i)
		}
	}
}

func TestTraceDisparityMatchesPaper(t *testing.T) {
	tr := defaultTrace(500, 3)
	if disp := tr.Disparity(); disp < 29 {
		t.Errorf("disparity %.1f below the paper's 29x", disp)
	}
}

func TestTraceDeterminism(t *testing.T) {
	a := defaultTrace(50, 7)
	b := defaultTrace(50, 7)
	for i := range a.Devices {
		if a.Devices[i] != b.Devices[i] {
			t.Fatal("same seed must give identical traces")
		}
	}
	c := defaultTrace(50, 8)
	same := true
	for i := range a.Devices {
		if a.Devices[i] != c.Devices[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical traces")
	}
}

func TestTrainingTimeMonotoneInModelSize(t *testing.T) {
	tr := defaultTrace(10, 4)
	f := func(seed int64) bool {
		small := tr.TrainingTime(0, 1e3, 20, 10, 4_000)
		large := tr.TrainingTime(0, 1e4, 20, 10, 40_000)
		return large > small && small > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

func TestTrainingTimeComputePlusNetwork(t *testing.T) {
	tr := &Trace{Devices: []Device{{
		ComputeMACsPerSec:    1e6,
		BandwidthBytesPerSec: 1e3,
		CapacityMACs:         1e6,
	}}}
	// compute = 3*1000*200/1e6 = 0.6s; network = 2*500/1e3 = 1s.
	got := tr.TrainingTime(0, 1000, 20, 10, 500)
	if got < 1.59 || got > 1.61 {
		t.Errorf("training time = %.3f, want 1.6", got)
	}
}

func TestInferenceLatencyScales(t *testing.T) {
	tr := &Trace{Devices: []Device{{ComputeMACsPerSec: 1e6}}}
	if got := tr.InferenceLatency(0, 1e3); got != 1 {
		t.Errorf("latency = %v ms, want 1", got)
	}
}

func TestTraceDefaultsApplied(t *testing.T) {
	tr := NewTrace(TraceConfig{N: 10})
	if len(tr.Devices) != 10 {
		t.Fatal("defaults broke generation")
	}
	if tr.Disparity() <= 1 {
		t.Error("default config should still be heterogeneous")
	}
}

func TestEmptyTraceDisparity(t *testing.T) {
	tr := &Trace{}
	if tr.Disparity() != 0 {
		t.Error("empty trace disparity should be 0")
	}
}

// TestDisparityEarlyExitMatchesFullScan pins Disparity's early exit on
// generated traces to the full scan, bit for bit: lazy and materialized
// traces of up to 10⁶ devices, over spreads from one point (Min == Max)
// to 1000× and several seeds, including traces too short to reach a
// clamp.
func TestDisparityEarlyExitMatchesFullScan(t *testing.T) {
	full := func(tr *Trace) float64 {
		min, max := tr.At(0).CapacityMACs, tr.At(0).CapacityMACs
		for i := 1; i < tr.Len(); i++ {
			c := tr.At(i).CapacityMACs
			min, max = math.Min(min, c), math.Max(max, c)
		}
		return max / min
	}
	check := func(cfg TraceConfig) {
		tr := NewTraceLazy(cfg)
		want := full(tr)
		if got := tr.Disparity(); got != want {
			t.Errorf("%+v: lazy disparity %v, full scan %v", cfg, got, want)
		}
		if cfg.N <= 10_000 {
			if got := NewTrace(cfg).Disparity(); got != want {
				t.Errorf("%+v: materialized disparity %v, full scan %v", cfg, got, want)
			}
		}
	}
	for _, spread := range []float64{1, 4, 32, 1000} {
		for seed := int64(1); seed <= 3; seed++ {
			for _, n := range []int{1, 2, 7, 1000, 100_000} {
				check(TraceConfig{N: n, MinCapacityMACs: 3e4, MaxCapacityMACs: 3e4 * spread, Seed: seed})
			}
		}
	}
	if !testing.Short() {
		check(TraceConfig{N: 1_000_000, MinCapacityMACs: 1e3, MaxCapacityMACs: 32e3, Seed: 7})
	}
}
