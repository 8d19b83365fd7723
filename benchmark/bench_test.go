package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestFeatureRowsReproducible(t *testing.T) {
	a, b := featureRows(7, 16, 5), featureRows(7, 16, 5)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different rows")
	}
	if reflect.DeepEqual(a, featureRows(8, 16, 5)) {
		t.Error("different seeds gave the same rows")
	}
	if len(a) != 16 || len(a[0]) != 5 {
		t.Errorf("shape %dx%d, want 16x5", len(a), len(a[0]))
	}
}

func TestSubSeedsDisjointAcrossSeeds(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 20; seed++ {
		for j := 0; j < 64; j++ {
			s := subSeed(seed, j)
			if s == 0 || seen[s] {
				t.Fatalf("sub-seed %d of seed %d repeats or is the zero default", j, seed)
			}
			seen[s] = true
		}
	}
}

// Only benchmark/layers may bind to internal packages: everything else
// must keep working when ROADMAP item 2 refactors them.
func TestOnlyLayersImportsInternal(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no source files: %v", err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "fedtrans/internal") {
				t.Errorf("%s imports %s: only benchmark/layers may", name, path)
			}
		}
	}
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestManifestMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	// The issue's bounds are floors (a bound is widened from measured
	// spread, never tightened below them); the driver's cap is 25 %, and
	// setup_s carries the largest bound.
	floors := map[string]float64{
		"setup_s": 0.15, "ops_per_s": 0.10, "alloc_b_per_op": 0.05, "tail_latency_us": 0.25,
		"final_accuracy": 0, "train_gmacs": 0.02, "network_mb": 0.02, "sim_wallclock_s": 0.05,
	}
	var e2e, layer []metricSpec
	for _, e := range m.EndToEnd {
		e2e = append(e2e, metricSpec{e.Name, e.Unit})
		floor, ok := floors[e.Name]
		if !ok || e.Bound <= 0 || e.Bound < floor || e.Bound > 0.25 || e.Bound > m.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v outside [%v, 0.25] or above setup_s's", e.Name, e.Bound, floor)
		}
	}
	if m.EndToEnd[0].Name != "setup_s" {
		t.Errorf("first end-to-end metric is %s, want setup_s", m.EndToEnd[0].Name)
	}
	for _, p := range m.PerLayer {
		layer = append(layer, metricSpec{p.Name, p.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end %v, program has %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer %v, program has %v", layer, perLayer)
	}
}

// The smoke pass runs every workload with one tiny segment, so every
// check (repeatability, networked ≡ in-process, checkpoint errors,
// classes over TCP ≡ Deployed.Predict) executes.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{workload: name, seed: 3, smoke: true, scratch: t.TempDir()}
			res, err := runEndToEnd(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.name]; !ok || !(v.Value > 0) || v.Unit != m.unit {
					t.Errorf("%s = %+v, want a positive value in %s", m.name, v, m.unit)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
		})
	}
}

// A result that differs between two runs of the same inputs must void
// the run, not pass silently.
func TestRepeatCheckVoidsRun(t *testing.T) {
	r := &runner{refs: make([]any, 1)}
	r.verify(0, 1.5)
	r.verify(0, 1.5)
	if len(r.broken) != 0 {
		t.Fatalf("equal results flagged: %v", r.broken)
	}
	r.verify(0, 1.25)
	if len(r.broken) != 1 {
		t.Fatalf("differing result not flagged")
	}
}

// The times of a run come from each timed member's fastest segment, the
// bytes and counts from every member that ran, timed or not.
func TestReportFastestSegmentAndCounts(t *testing.T) {
	seg := func(ms int, acc float64) segment {
		s := segment{ops: 10, counts: counts{accuracy: acc, gmacs: 1, networkMB: 1, simSeconds: 1}}
		s.wall = time.Duration(ms) * time.Millisecond
		s.allocB = 1000
		return s
	}
	r := newRunner(&trainWorkload{k: 2})
	r.samples = [][]segment{{seg(200, .5), seg(100, .5)}, {seg(300, .5), seg(400, .5)}}
	once := seg(100, .2) // member 2 ran once, in set-up
	once.allocB = 4000
	r.first[0], r.first[1], r.first[2] = &r.samples[0][0], &r.samples[1][0], &once
	res, _ := r.report(1, 1)
	want := map[string]float64{
		"ops_per_s":       20 / 0.4, // 100 ms + 300 ms
		"tail_latency_us": 20_000,   // 400 ms ÷ 20 operations
		"alloc_b_per_op":  200,      // (1000 + 1000 + 4000) B ÷ 30 operations
		"final_accuracy":  0.4,      // three members ran
	}
	for name, v := range want {
		if got := res.Metrics[name].Value; math.Abs(got-v) > 1e-9*v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if !res.Correct || res.Attempted != 40 {
		t.Errorf("correct=%v attempted=%d, want true and 40", res.Correct, res.Attempted)
	}
}
