package main

import (
	"math"
	"slices"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count) without reordering xs. NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest sample with at least p% of the samples
// at or below it.
func percentile[T int64 | float64](sorted []T, p float64) T {
	return sorted[max(rank(p, len(sorted)), 1)-1]
}

// rank is ceil(p% of n), forgiving the rounding error of p/100*n
// (99.9% of 10000 is 9990, not 9991).
func rank(p float64, n int) int { return int(math.Ceil(p/100*float64(n) - 1e-9)) }

// tailPercentiles are the percentiles a latency report may quote.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// highestPercentile is the highest entry of tailPercentiles that still
// has at least ten of n samples beyond it; 0 when even the median does
// not (n < 20).
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default exclusive method), which is what the driver applies to the
// ten values of a metric.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median.
func quartileSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}
