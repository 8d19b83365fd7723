package fedtrans

import (
	"testing"
)

// benchDeployed trains one small dense session and deploys its first
// model for the serving benchmarks. The dense profile is the workload
// where batching pays: a single-row forward is a BLAS2 product with no
// row reuse, while a multi-row frame or coalesced batch rides the
// register-tiled BLAS3 kernel.
func benchDeployed(b *testing.B) *Deployed {
	b.Helper()
	opts := DefaultOptions()
	opts.Clients = 12
	opts.Rounds = 3
	opts.ClientsPerRound = 5
	opts.LocalSteps = 2
	s, err := NewSession(opts)
	if err != nil {
		b.Fatal(err)
	}
	s.Run()
	blob, err := s.ExportModel(0)
	if err != nil {
		b.Fatal(err)
	}
	d, err := LoadModel(blob)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func benchFeatures(dim int) []float64 {
	f := make([]float64, dim)
	for j := range f {
		f[j] = float64(j%13) / 13
	}
	return f
}

// BenchmarkPredictDirect is the per-call baseline: every prediction
// runs its own single-row forward pass through a pooled session.
func BenchmarkPredictDirect(b *testing.B) {
	d := benchDeployed(b)
	f := benchFeatures(d.InputDim())
	if _, err := d.Predict(f); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Predict(f); err != nil {
			b.Fatal(err)
		}
	}
}

// serveFrameRows is how many predictions a serving client folds into
// one request in the sustained benchmark — the size of one PREDICT
// frame a TCP frontend would carry.
const serveFrameRows = 8

// BenchmarkPredictServe is the pooled serving path under sustained
// load: concurrent clients stream small frames (serveFrameRows
// predictions per request, as the TCP frontend does) through the
// InferenceServer: 16 clients per lane, so most frames queue and the
// lane that frees coalesces them into one strided batch forward on the
// register-tiled kernel. ns/op is per prediction; sustained
// predictions/sec must beat the per-call Predict baseline by >= 2x at
// 0 steady-state allocs/op — requests and lanes are pooled.
func BenchmarkPredictServe(b *testing.B) {
	d := benchDeployed(b)
	srv := NewInferenceServer(d, DefaultMaxBatch)
	defer srv.Close()
	f := benchFeatures(d.InputDim())
	if _, err := srv.Predict(f); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rows := make([][]float64, 0, serveFrameRows)
		class := make([]int, serveFrameRows)
		flush := func() {
			if err := srv.PredictBatchInto(rows, class[:len(rows)]); err != nil {
				b.Fatal(err)
			}
			rows = rows[:0]
		}
		for pb.Next() {
			if rows = append(rows, f); len(rows) == serveFrameRows {
				flush()
			}
		}
		if len(rows) > 0 {
			flush()
		}
	})
}

// TestPredictServeAllocationRegression pins the zero-allocation steady
// state of the serving path: after the lanes' warm-up passes, a
// prediction reuses its pooled request, the session input buffer, and
// the forward workspaces end to end.
func TestPredictServeAllocationRegression(t *testing.T) {
	opts := DefaultOptions()
	opts.Clients = 12
	opts.Rounds = 10
	opts.ClientsPerRound = 5
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	blob, err := s.ExportModel(0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := LoadModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewInferenceServer(d, 8)
	defer srv.Close()
	f := benchFeatures(d.InputDim())
	for i := 0; i < 16; i++ { // warm request pool, input buffer, workspaces
		if _, err := srv.Predict(f); err != nil {
			t.Fatal(err)
		}
	}
	if raceEnabled {
		t.Skip("race detector drops sync.Pool puts; alloc counts are nondeterministic")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := srv.Predict(f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state served prediction allocates %.1f times, want 0", allocs)
	}
}
