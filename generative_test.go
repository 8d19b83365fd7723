package fedtrans

import "testing"

// TestPopulationValidates pins option plumbing: Population overrides
// Clients, so ClientsPerRound validates against it.
func TestPopulationValidates(t *testing.T) {
	opts := ScaleOptions()
	opts.Population = 30
	opts.ClientsPerRound = 40
	if _, err := NewSession(opts); err == nil {
		t.Error("ClientsPerRound > Population must fail validation")
	}
}

// TestPredictBatchSingleForward pins the serving bugfix: a batched
// prediction must agree with row-by-row Predict and must not allocate
// per row — one conversion buffer, one forward, one result slice,
// regardless of batch size.
func TestPredictBatchSingleForward(t *testing.T) {
	opts := DefaultOptions()
	opts.Clients = 8
	opts.Rounds = 2
	opts.ClientsPerRound = 4
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
	dim := d.InputDim()

	batch := make([][]float64, 64)
	for i := range batch {
		row := make([]float64, dim)
		for j := range row {
			row[j] = float64(i*j%13) / 13
		}
		batch[i] = row
	}
	got, err := d.PredictBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("batch result length %d", len(got))
	}
	for i, row := range batch {
		want, err := d.Predict(row)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("row %d: batch %d != single %d", i, got[i], want)
		}
	}

	// Row validation happens before any work.
	bad := [][]float64{batch[0], make([]float64, dim-1)}
	if _, err := d.PredictBatch(bad); err == nil {
		t.Error("mismatched row dim must fail")
	}
	if out, err := d.PredictBatch(nil); err != nil || out != nil {
		t.Errorf("empty batch: %v %v", out, err)
	}

	// Allocation regression: the batched path's allocations must not
	// scale with rows. Forward allocates its own output/workspace
	// tensors, so pin a generous constant bound instead of an exact
	// count — the buggy version allocated ≥ 4 per row (128+ here).
	if raceEnabled {
		t.Log("race detector drops sync.Pool puts; skipping alloc bound")
		return
	}
	small := batch[:1]
	perRow := testing.AllocsPerRun(20, func() {
		if _, err := d.PredictBatch(small); err != nil {
			t.Fatal(err)
		}
	})
	whole := testing.AllocsPerRun(20, func() {
		if _, err := d.PredictBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	if whole > perRow+8 {
		t.Errorf("batched prediction allocates per row: 1-row %.0f allocs, 64-row %.0f", perRow, whole)
	}
}
