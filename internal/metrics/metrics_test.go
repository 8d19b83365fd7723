package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCostsAccounting(t *testing.T) {
	var c Costs
	c.AddTraining(1000, 20, 10) // 3*1000*200 = 6e5
	if c.TrainMACs != 6e5 {
		t.Errorf("TrainMACs = %v, want 6e5", c.TrainMACs)
	}
	c.AddTransfer(500)
	if c.NetworkBytes != 1000 {
		t.Errorf("NetworkBytes = %v, want 1000", c.NetworkBytes)
	}
	c.ObserveStorage(100)
	c.ObserveStorage(50) // peak keeps 100
	c.ObserveStorage(200)
	if c.StorageBytes != 200 {
		t.Errorf("StorageBytes = %v, want 200 (peak)", c.StorageBytes)
	}
}

func TestMB(t *testing.T) {
	if MB(2_500_000) != 2.5 {
		t.Errorf("MB = %v", MB(2_500_000))
	}
}

func TestBoxKnownQuartiles(t *testing.T) {
	b := Box([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Max != 5 || b.Median != 3 || b.Mean != 3 {
		t.Errorf("box = %+v", b)
	}
	if b.Q1 != 2 || b.Q3 != 4 {
		t.Errorf("quartiles = %v/%v", b.Q1, b.Q3)
	}
	if b.IQR() != 2 {
		t.Errorf("IQR = %v", b.IQR())
	}
}

func TestBoxEdgeCases(t *testing.T) {
	if b := Box(nil); b.Mean != 0 || b.IQR() != 0 {
		t.Error("empty box should be zero")
	}
	b := Box([]float64{7})
	if b.Min != 7 || b.Max != 7 || b.Median != 7 {
		t.Errorf("single-element box = %+v", b)
	}
}

func TestBoxDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Box(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Box must not sort the caller's slice")
	}
}

func TestBoxOrderingProperty(t *testing.T) {
	f := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		b := Box(vals)
		return b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Error("Mean wrong")
	}
	if Std([]float64{5}) != 0 {
		t.Error("Std of singleton should be 0")
	}
	got := Std([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("Std = %v, want 2", got)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Append(1, 0.1)
	s.Append(2, 0.2)
	s.Append(5, 0.5)
	if len(s.X) != 3 || len(s.Y) != 3 || s.X[2] != 5 || s.Y[1] != 0.2 {
		t.Errorf("series %v / %v, want the points in append order", s.X, s.Y)
	}
}

func TestTableAlignment(t *testing.T) {
	tab := &Table{Header: []string{"A", "LongHeader"}}
	tab.AddRow("xx", "1")
	tab.AddRow("a-very-long-cell", "2")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	// All lines equal width (padded columns).
	if len(lines[0]) != len(lines[1]) || len(lines[1]) != len(lines[2]) {
		t.Errorf("columns not aligned:\n%s", out)
	}
	if !strings.Contains(out, "a-very-long-cell") {
		t.Error("cell lost")
	}
}

func TestF(t *testing.T) {
	if F(3.14159, 2) != "3.14" {
		t.Errorf("F = %q", F(3.14159, 2))
	}
}
