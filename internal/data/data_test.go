package data

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"fedtrans/internal/tensor"
	"fedtrans/internal/xrand"
)

func TestGenerateProfiles(t *testing.T) {
	for _, p := range []string{"femnist", "cifar10", "speech", "openimage", "vit", "scale"} {
		ds := Generate(Config{Profile: p, Clients: 8, Seed: 1})
		if len(ds.Clients) != 8 {
			t.Fatalf("%s: clients = %d", p, len(ds.Clients))
		}
		wantDim := 1
		for _, s := range ds.InputShape {
			wantDim *= s
		}
		if ds.FeatureDim != wantDim {
			t.Errorf("%s: FeatureDim %d != prod(InputShape) %d", p, ds.FeatureDim, wantDim)
		}
		for i, c := range ds.Clients {
			if c.TrainX.Shape[1] != ds.FeatureDim {
				t.Fatalf("%s client %d: train dim %d", p, i, c.TrainX.Shape[1])
			}
			if len(c.TrainY) != c.TrainX.Shape[0] || len(c.TestY) != c.TestX.Shape[0] {
				t.Fatalf("%s client %d: X/Y size mismatch", p, i)
			}
			for _, y := range c.TrainY {
				if y < 0 || y >= ds.Classes {
					t.Fatalf("%s client %d: label %d out of range", p, i, y)
				}
			}
		}
	}
}

func TestGenerateUnknownProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Generate(Config{Profile: "imagenet", Clients: 2})
}

func TestGenerateDeterminism(t *testing.T) {
	a := Generate(Config{Profile: "femnist", Clients: 5, Seed: 9})
	b := Generate(Config{Profile: "femnist", Clients: 5, Seed: 9})
	for i := range a.Clients {
		for j := range a.Clients[i].TrainX.Data {
			if a.Clients[i].TrainX.Data[j] != b.Clients[i].TrainX.Data[j] {
				t.Fatal("same seed must reproduce the dataset")
			}
		}
	}
}

// TestGenerateParallelEqualsSerial builds the same datasets at one core
// and at four: Generate synthesizes its clients through par.ForN, and
// every client must come out the same whichever worker drew it.
func TestGenerateParallelEqualsSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, cfg := range []Config{
		{Profile: "cifar10", Clients: 50, Seed: 1},
		{Profile: "femnist", Clients: 37, Heterogeneity: 0.3, Seed: 7},
		{Profile: "vit", Clients: 9, Seed: 3},
	} {
		runtime.GOMAXPROCS(1)
		serial := Generate(cfg)
		runtime.GOMAXPROCS(4)
		parallel := Generate(cfg)
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: Generate at GOMAXPROCS 4 differs from GOMAXPROCS 1", cfg.Profile)
		}
	}
}

// TestImageRemapMatchesDivisionOracle holds the image-shaped remap of
// sampleSetInto to the division formula it replaced: feature j = (c, y,
// x) reads the prototype at (c, (y+dy) mod h, (x+dx) mod w). Prototype
// value i is i and the noise, gain and offset are the identity, so each
// row spells out the index it read; the row's first feature gives its
// phase (dy, dx), and every phase must occur.
func TestImageRemapMatchesDivisionOracle(t *testing.T) {
	for _, shape := range [][3]int{{3, 8, 8}, {1, 12, 12}, {2, 3, 5}, {1, 2, 7}, {4, 5, 2}} {
		ch, h, w := shape[0], shape[1], shape[2]
		d := ch * h * w
		proto := make([]float64, d)
		for i := range proto {
			proto[i] = float64(i)
		}
		ones, zeros := make([]float64, d), make([]float64, d)
		for i := range ones {
			ones[i] = 1
		}
		sp := sampleParams{
			geom:   profileGeom{classes: 1, featureDim: d, inputShape: []int{ch, h, w}},
			protos: [][]float64{proto}, maxModes: 1, labelDist: []float64{1},
			scales: ones, biases: zeros, norms: make([]float64, d), imageShaped: true,
		}
		var x tensor.Tensor
		n := 64
		sampleSetInto(&x, nil, n, sp, xrand.New(int64(d)))
		seen := map[[2]int]bool{}
		for i := 0; i < n; i++ {
			row := x.Data[i*d : (i+1)*d]
			dy, dx := int(row[0])/w, int(row[0])%w
			seen[[2]int{dy, dx}] = true
			for j, v := range row {
				cc, rem := j/(h*w), j%(h*w)
				yy, xx := (rem/w+dy)%h, (rem%w+dx)%w
				if want := (cc*h+yy)*w + xx; int(v) != want {
					t.Fatalf("shape %v, phase (%d, %d): feature %d read prototype %v, want %d", shape, dy, dx, j, v, want)
				}
			}
		}
		if len(seen) != 4 {
			t.Errorf("shape %v: %d of the 4 phases drawn in %d rows", shape, len(seen), n)
		}
	}
}

func TestSampleCountsWithinBounds(t *testing.T) {
	ds := Generate(Config{Profile: "femnist", Clients: 40, MinSamples: 10, MaxSamples: 50, Seed: 2})
	for i, c := range ds.Clients {
		n := len(c.TrainY)
		if n < 10 || n > 50 {
			t.Errorf("client %d has %d samples, want [10, 50]", i, n)
		}
	}
}

func TestComplexityLevelsSpread(t *testing.T) {
	ds := Generate(Config{Profile: "femnist", Clients: 60, Seed: 3})
	seen := map[int]bool{}
	for _, c := range ds.Clients {
		if c.Complexity < 0 || c.Complexity > 3 {
			t.Fatalf("complexity %d out of range", c.Complexity)
		}
		seen[c.Complexity] = true
	}
	if len(seen) < 3 {
		t.Errorf("complexity levels not spread: %v", seen)
	}
}

// labelEntropy measures the skew of a client's label distribution.
func labelEntropy(y []int, classes int) float64 {
	counts := make([]float64, classes)
	for _, v := range y {
		counts[v]++
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := c / float64(len(y))
		h -= p * math.Log(p)
	}
	return h
}

func TestDirichletHeterogeneityControlsSkew(t *testing.T) {
	skewed := Generate(Config{Profile: "femnist", Clients: 30, Heterogeneity: 0.2, Seed: 4})
	uniform := Generate(Config{Profile: "femnist", Clients: 30, Heterogeneity: 100, Seed: 4})
	hs, hu := 0.0, 0.0
	for i := range skewed.Clients {
		hs += labelEntropy(skewed.Clients[i].TrainY, skewed.Classes)
		hu += labelEntropy(uniform.Clients[i].TrainY, uniform.Classes)
	}
	if hs >= hu {
		t.Errorf("low h should give lower label entropy: h=0.2 -> %.3f, h=100 -> %.3f", hs, hu)
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	f := func(seed int64) bool {
		r := newRand(seed)
		for _, h := range []float64{0.1, 1, 10} {
			p := dirichletInto(nil, 7, h, r)
			sum := 0.0
			for _, v := range p {
				if v < 0 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGammaSamplePositive(t *testing.T) {
	r := newRand(5)
	for i := 0; i < 200; i++ {
		for _, a := range []float64{0.1, 0.5, 1, 3} {
			if g := gammaSample(a, r); g <= 0 || math.IsNaN(g) {
				t.Fatalf("gamma(%v) sample = %v", a, g)
			}
		}
	}
}

func TestCentralizedPoolsEverything(t *testing.T) {
	ds := Generate(Config{Profile: "femnist", Clients: 6, Seed: 6})
	x, y := ds.Centralized(1)
	want := 0
	classSum := make([]int, ds.Classes)
	for _, c := range ds.Clients {
		want += len(c.TrainY)
		for _, v := range c.TrainY {
			classSum[v]++
		}
	}
	if x.Shape[0] != want || len(y) != want {
		t.Fatalf("pooled %d, want %d", x.Shape[0], want)
	}
	got := make([]int, ds.Classes)
	for _, v := range y {
		got[v]++
	}
	for i := range got {
		if got[i] != classSum[i] {
			t.Fatal("shuffling lost or duplicated labels")
		}
	}
}

func TestBatchExtracts(t *testing.T) {
	ds := Generate(Config{Profile: "femnist", Clients: 1, Seed: 7})
	c := ds.Clients[0]
	bx, by := Batch(c.TrainX, c.TrainY, []int{0, 2})
	if bx.Shape[0] != 2 || len(by) != 2 {
		t.Fatal("batch size wrong")
	}
	for j := 0; j < ds.FeatureDim; j++ {
		if bx.At(1, j) != c.TrainX.At(2, j) {
			t.Fatal("batch row 1 should copy sample 2")
		}
	}
	if by[1] != c.TrainY[2] {
		t.Fatal("batch label mismatch")
	}
}

func TestBatchIntoReusesAndResizes(t *testing.T) {
	ds := Generate(Config{Profile: "femnist", Clients: 1, Seed: 7})
	c := ds.Clients[0]
	bx := &tensor.Tensor{}
	by := make([]int, 3)
	BatchInto(bx, by, c.TrainX, c.TrainY, []int{0, 1, 2})
	wantX, wantY := Batch(c.TrainX, c.TrainY, []int{0, 1, 2})
	if !tensor.Equal(bx, wantX, 0) {
		t.Fatal("BatchInto differs from Batch")
	}
	for i := range by {
		if by[i] != wantY[i] {
			t.Fatal("BatchInto labels differ from Batch")
		}
	}
	// Shrinking reuses the same buffer; contents are fully rewritten.
	prev := &bx.Data[0]
	BatchInto(bx, by[:2], c.TrainX, c.TrainY, []int{2, 0})
	if bx.Shape[0] != 2 {
		t.Fatalf("resized shape %v", bx.Shape)
	}
	if &bx.Data[0] != prev {
		t.Error("shrinking batch reallocated the buffer")
	}
	for j := 0; j < ds.FeatureDim; j++ {
		if bx.At(0, j) != c.TrainX.At(2, j) {
			t.Fatal("reused batch row 0 should copy sample 2")
		}
	}
}

// TestCheckBoundsConfig: Check refuses what Generate would panic on or
// could not hold in memory, and passes every profile at its defaults.
func TestCheckBoundsConfig(t *testing.T) {
	for _, p := range []string{"femnist", "cifar10", "speech", "openimage", "vit", "scale"} {
		if _, err := (Config{Profile: p}).Check(false); err != nil {
			t.Errorf("%q at its defaults: %v", p, err)
		}
	}
	huge := Config{Profile: "cifar10", Clients: 1_000_000}
	if _, err := huge.Check(true); err != nil {
		t.Errorf("a generative million-client population: %v", err)
	}
	for name, cfg := range map[string]Config{
		"no profile":              {},
		"unknown profile":         {Profile: "imagenet"},
		"negative clients":        {Profile: "femnist", Clients: -1},
		"negative heterogeneity":  {Profile: "femnist", Heterogeneity: -1},
		"negative test samples":   {Profile: "femnist", TestSamples: -1},
		"oversized train set":     {Profile: "femnist", MaxSamples: maxSamples + 1},
		"oversized minimum":       {Profile: "femnist", MinSamples: 1 << 62},
		"materialized population": huge,
	} {
		if _, err := cfg.Check(false); err == nil {
			t.Errorf("%s: Check accepted %+v", name, cfg)
		}
	}
}

// newRand returns a seeded source, the one the synthesis helpers draw from.
func newRand(seed int64) *xrand.Source { return xrand.New(seed) }
