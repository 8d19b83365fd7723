package data

import (
	"testing"

	"fedtrans/internal/tensor"
	"fedtrans/internal/xrand"
)

// clientsEqual compares two clients bit for bit.
func clientsEqual(a, b *Client) bool {
	if a.Complexity != b.Complexity ||
		len(a.TrainY) != len(b.TrainY) || len(a.TestY) != len(b.TestY) {
		return false
	}
	for i := range a.TrainY {
		if a.TrainY[i] != b.TrainY[i] {
			return false
		}
	}
	for i := range a.TestY {
		if a.TestY[i] != b.TestY[i] {
			return false
		}
	}
	if len(a.TrainX.Shape) != len(b.TrainX.Shape) || len(a.TestX.Shape) != len(b.TestX.Shape) ||
		len(a.TrainX.Data) != len(b.TrainX.Data) || len(a.TestX.Data) != len(b.TestX.Data) {
		return false
	}
	for i := range a.TrainX.Shape {
		if a.TrainX.Shape[i] != b.TrainX.Shape[i] {
			return false
		}
	}
	for i := range a.TestX.Shape {
		if a.TestX.Shape[i] != b.TestX.Shape[i] {
			return false
		}
	}
	for i := range a.TrainX.Data {
		if a.TrainX.Data[i] != b.TrainX.Data[i] {
			return false
		}
	}
	for i := range a.TestX.Data {
		if a.TestX.Data[i] != b.TestX.Data[i] {
			return false
		}
	}
	return true
}

// TestGenerateLazyBitIdentical pins the tentpole guarantee: the
// generative path synthesizes every client bit-identical to the
// materialized dataset, for the flat scale profile at the 1200-client
// bench config and for an image-shaped profile, in any access order and
// through reused cursors.
func TestGenerateLazyBitIdentical(t *testing.T) {
	for _, cfg := range []Config{
		{Profile: "scale", Clients: 1200, Heterogeneity: 1,
			MinSamples: 8, MaxSamples: 16, TestSamples: 8, Seed: 1},
		{Profile: "femnist", Clients: 40, Heterogeneity: 0.5, Seed: 7},
	} {
		mat := Generate(cfg)
		lazy := GenerateLazy(cfg)
		if lazy.Len() != mat.Len() || lazy.Len() != cfg.Clients {
			t.Fatalf("%s: Len = %d (lazy) / %d (mat), want %d",
				cfg.Profile, lazy.Len(), mat.Len(), cfg.Clients)
		}
		if lazy.Classes != mat.Classes || lazy.FeatureDim != mat.FeatureDim ||
			lazy.Profile != mat.Profile {
			t.Fatalf("%s: metadata mismatch: %+v vs %+v", cfg.Profile, lazy, mat)
		}
		var cur ClientCursor
		// Reverse order through one reused cursor: synthesis must be a
		// pure function of (seed, clientID), independent of access
		// history.
		for k := mat.Len() - 1; k >= 0; k-- {
			got := lazy.Fetch(&cur, k)
			if !clientsEqual(got, &mat.Clients[k]) {
				t.Fatalf("%s: client %d diverges from materialized", cfg.Profile, k)
			}
		}
		// The train-only fetch: the train split and Complexity of the
		// materialized client, an empty test split. One cursor alternates
		// both fetches, so neither may leave state the other reads.
		var alt ClientCursor
		for k := mat.Len() - 1; k >= 0; k-- {
			want := &mat.Clients[k]
			if k%2 == 0 {
				if got := lazy.Fetch(&alt, k); !clientsEqual(got, want) {
					t.Fatalf("%s: client %d after a train-only fetch diverges from materialized", cfg.Profile, k)
				}
				continue
			}
			trainOnly := *want
			trainOnly.TestX = &tensor.Tensor{Shape: []int{0, mat.FeatureDim}}
			trainOnly.TestY = nil
			if got := lazy.FetchTrain(&alt, k); !clientsEqual(got, &trainOnly) {
				t.Fatalf("%s: train-only client %d is not the materialized train split with an empty test split", cfg.Profile, k)
			}
		}
		if got := mat.FetchTrain(nil, 2); got != &mat.Clients[2] {
			t.Fatalf("%s: materialized FetchTrain does not return &Clients[k]", cfg.Profile)
		}
		// Repeat access: cursor reuse must not corrupt resynthesis.
		first := lazy.Fetch(&cur, 3)
		snapshot := append([]int(nil), first.TrainY...)
		lazy.Fetch(&cur, 5)
		again := lazy.Fetch(&cur, 3)
		for i := range snapshot {
			if again.TrainY[i] != snapshot[i] {
				t.Fatalf("%s: re-fetch of client 3 diverges at %d", cfg.Profile, i)
			}
		}
	}
}

// scaleShape is the round_scale workload's client shape.
var scaleShape = Config{Profile: "scale", Clients: 100_000, Heterogeneity: 1,
	MinSamples: 8, MaxSamples: 16, TestSamples: 8, Seed: 1}

// TestFetchSteadyStateAllocs pins both fetches at 0 allocs once a
// cursor's buffers have grown to the largest shard of the shape.
func TestFetchSteadyStateAllocs(t *testing.T) {
	ds := GenerateLazy(scaleShape)
	for _, c := range []struct {
		name  string
		fetch func(*ClientCursor, int) *Client
	}{{"Fetch", ds.Fetch}, {"FetchTrain", ds.FetchTrain}} {
		var cur ClientCursor
		for k := 0; k < 100; k++ { // warm: some shard here has 16 samples
			c.fetch(&cur, k)
		}
		k := 0
		if a := testing.AllocsPerRun(200, func() {
			k++
			c.fetch(&cur, k%100)
		}); a != 0 {
			t.Errorf("%s at the scale shape: %v allocs, want 0", c.name, a)
		}
	}
}

// BenchmarkFetch synthesizes scale-shape clients: full is both splits
// (Fetch), train the train split only (FetchTrain).
func BenchmarkFetch(b *testing.B) {
	ds := GenerateLazy(scaleShape)
	for _, c := range []struct {
		name  string
		fetch func(*ClientCursor, int) *Client
	}{{"full", ds.Fetch}, {"train", ds.FetchTrain}} {
		b.Run(c.name, func(b *testing.B) {
			var cur ClientCursor
			for i := 0; i < b.N; i++ {
				c.fetch(&cur, i%ds.Len())
			}
		})
	}
}

// TestGenerateLazySetupIndependentOfPopulation pins the O(active)
// promise structurally: a generative dataset holds no per-client state,
// whatever the population.
func TestGenerateLazySetupIndependentOfPopulation(t *testing.T) {
	ds := GenerateLazy(Config{Profile: "scale", Clients: 1_000_000, Seed: 3,
		MinSamples: 8, MaxSamples: 16, TestSamples: 8})
	if ds.Clients != nil {
		t.Fatalf("generative dataset materialized %d clients", len(ds.Clients))
	}
	if ds.Len() != 1_000_000 {
		t.Fatalf("Len = %d", ds.Len())
	}
	var cur ClientCursor
	cl := ds.Fetch(&cur, 999_999)
	if len(cl.TrainY) < 8 || len(cl.TrainY) > 16 {
		t.Fatalf("client at the far end has %d train samples", len(cl.TrainY))
	}
}

// TestCentralizedGenerativeMatches pins that pooling a generative
// dataset equals pooling its materialized twin.
func TestCentralizedGenerativeMatches(t *testing.T) {
	cfg := Config{Profile: "femnist", Clients: 12, Seed: 11}
	cx, cy := Generate(cfg).Centralized(99)
	lx, ly := GenerateLazy(cfg).Centralized(99)
	if len(cy) != len(ly) {
		t.Fatalf("pooled sizes differ: %d vs %d", len(cy), len(ly))
	}
	for i := range cy {
		if cy[i] != ly[i] {
			t.Fatalf("pooled label %d differs", i)
		}
	}
	for i := range cx.Data {
		if cx.Data[i] != lx.Data[i] {
			t.Fatalf("pooled feature %d differs", i)
		}
	}
}

// TestLogUniformIntBounds pins the satellite bugfix: the sampler is
// documented inclusive on both ends, so over many draws every integer in
// [lo, hi] — including hi itself, which the truncated-Exp version hit
// with probability ≈ 0 — must have positive mass, and no draw may fall
// outside the range.
func TestLogUniformIntBounds(t *testing.T) {
	rng := xrand.New(13)
	lo, hi := 8, 16
	seen := map[int]int{}
	for i := 0; i < 20_000; i++ {
		n := logUniformInt(lo, hi, rng)
		if n < lo || n > hi {
			t.Fatalf("draw %d outside [%d, %d]", n, lo, hi)
		}
		seen[n]++
	}
	for v := lo; v <= hi; v++ {
		if seen[v] == 0 {
			t.Errorf("value %d never drawn in 20k samples", v)
		}
	}
	// Log-uniform: mass decreases with magnitude, so lo must outdraw hi.
	if seen[lo] <= seen[hi] {
		t.Errorf("expected log-uniform skew toward lo: lo drawn %d, hi drawn %d", seen[lo], seen[hi])
	}
	// Degenerate range collapses to lo.
	if got := logUniformInt(5, 5, rng); got != 5 {
		t.Errorf("logUniformInt(5,5) = %d", got)
	}
	if got := logUniformInt(7, 3, rng); got != 7 {
		t.Errorf("logUniformInt(7,3) = %d", got)
	}
}
