// Package metrics provides the accounting and statistics used by the
// evaluation harness: training-cost MAC counters, network/storage byte
// counters, accuracy aggregation, IQR and box-plot summaries.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Costs accumulates the three cost metrics of Table 2.
type Costs struct {
	// TrainMACs is the total multiply-accumulate operations performed by
	// all clients (forward + backward, backward costed at 2× forward).
	TrainMACs float64
	// NetworkBytes counts model downloads and uploads.
	NetworkBytes int64
	// StorageBytes is the peak server-side storage across the run (sum of
	// live model sizes).
	StorageBytes int64
}

// AddTraining records one client's local training: s steps of batch b on a
// model of the given per-sample forward MACs.
func (c *Costs) AddTraining(macsPerSample float64, steps, batch int) {
	c.TrainMACs += 3 * macsPerSample * float64(steps*batch)
}

// AddTransfer records a download+upload of modelBytes.
func (c *Costs) AddTransfer(modelBytes int64) { c.NetworkBytes += 2 * modelBytes }

// ObserveStorage tracks the peak storage footprint.
func (c *Costs) ObserveStorage(bytes int64) {
	if bytes > c.StorageBytes {
		c.StorageBytes = bytes
	}
}

// MB converts bytes to megabytes.
func MB(b int64) float64 { return float64(b) / 1e6 }

// BoxStats summarizes a sample the way the paper's box plots (Figure 6)
// do.
type BoxStats struct {
	Min, Q1, Median, Q3, Max, Mean float64
}

// IQR returns the interquartile range.
func (b BoxStats) IQR() float64 { return b.Q3 - b.Q1 }

// Box computes box-plot statistics of a sample.
func Box(values []float64) BoxStats {
	if len(values) == 0 {
		return BoxStats{}
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	mean := 0.0
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	return BoxStats{
		Min:    v[0],
		Q1:     quantile(v, 0.25),
		Median: quantile(v, 0.5),
		Q3:     quantile(v, 0.75),
		Max:    v[len(v)-1],
		Mean:   mean,
	}
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// Std returns the population standard deviation.
func Std(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	m := Mean(values)
	s := 0.0
	for _, v := range values {
		d := v - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(values)))
}

// Series is a monotone (x, y) trace such as Figure 7's cost-to-accuracy
// curves.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table is a simple fixed-column text table used by the benchmark harness
// to print paper-style rows.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := ""
	line := func(cells []string) string {
		s := ""
		for i, c := range cells {
			if i > 0 {
				s += "  "
			}
			s += pad(c, widths[i])
		}
		return s + "\n"
	}
	out += line(t.Header)
	for _, r := range t.Rows {
		out += line(r)
	}
	return out
}

func pad(s string, w int) string {
	for len(s) < w {
		s += " "
	}
	return s
}

// F formats a float compactly for table cells.
func F(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }
