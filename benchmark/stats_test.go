package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{4, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%g = %d, want %d", c.p, got, c.want)
		}
	}
}

// The highest percentile worth quoting has at least ten samples beyond it.
func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9_999, 99}, {10_000, 99.9}, {100_000, 99.99}, {1_200_000, 99.99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([2.0, 3.1, 3.3, 7.5, 9.9], n=4) == [2.55, 3.3, 8.7]
	q1, q2, q3 = quartiles([]float64{2.0, 3.1, 3.3, 7.5, 9.9})
	if math.Abs(q1-2.55) > 1e-12 || q2 != 3.3 || math.Abs(q3-8.7) > 1e-12 {
		t.Errorf("quartiles = %v %v %v, want 2.55 3.3 8.7", q1, q2, q3)
	}
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
}
