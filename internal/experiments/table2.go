package experiments

import (
	"fmt"

	"fedtrans/internal/baselines"
	"fedtrans/internal/fl"
	"fedtrans/internal/metrics"
	"fedtrans/internal/par"
)

// Table2Row is one (dataset, method) row of Table 2.
type Table2Row struct {
	Dataset   string
	Method    string
	Accuracy  float64 // percent
	IQR       float64 // percent
	CostMACs  float64
	StorageMB float64
	NetworkMB float64
}

// Table2Result collects the main end-to-end comparison (Table 2) plus the
// per-client accuracy distributions (Figure 6) and cost-to-accuracy
// curves (Figure 7), which the paper derives from the same runs.
type Table2Result struct {
	Rows []Table2Row
	// PerClient maps "dataset/method" to the client accuracy box stats
	// (Figure 6).
	PerClient map[string]metrics.BoxStats
	// Curves maps "dataset/method" to the cost-accuracy series (Figure 7).
	Curves map[string]metrics.Series
}

// RunTable2 executes the full method × dataset grid. Profiles lists data
// profiles to include (nil = all four).
//
// Grid cells run in parallel on a GOMAXPROCS-bounded pool: dataset
// profiles fan out first, and within each profile the three baselines
// fan out once the FedTrans run has produced the largest transformed
// spec they take as input. Every run owns its RNGs and its model-ID
// scope, and results land in cell-indexed slots assembled in grid
// order, so the output is byte-identical to a serial execution.
func RunTable2(sc Scale, profiles []string) Table2Result {
	if len(profiles) == 0 {
		profiles = []string{"cifar10", "femnist", "speech", "openimage"}
	}
	methods := []string{"FedTrans", "FLuID", "HeteroFL", "SplitMix"}
	names := make([]string, len(profiles))
	results := make([][]fl.Result, len(profiles))
	par.ForN(len(profiles), func(pi int) {
		w := NewWorkload(profiles[pi], sc, 1)
		names[pi] = w.Name
		largest, ftRes := LargestSpec(w, sc)
		cell := make([]fl.Result, len(methods))
		cell[0] = ftRes
		cfg := baselineConfig(sc)
		runs := []func() fl.Result{
			func() fl.Result { return baselines.NewFLuID(cfg, w.Dataset, w.Trace, largest).Run() },
			func() fl.Result { return baselines.NewHeteroFL(cfg, w.Dataset, w.Trace, largest, 4).Run() },
			func() fl.Result { return baselines.NewSplitMix(cfg, w.Dataset, w.Trace, largest, 4).Run() },
		}
		par.ForN(len(runs), func(mi int) { cell[mi+1] = runs[mi]() })
		results[pi] = cell
	})

	out := Table2Result{
		PerClient: make(map[string]metrics.BoxStats),
		Curves:    make(map[string]metrics.Series),
	}
	for pi := range profiles {
		for mi, method := range methods {
			r := results[pi][mi]
			out.Rows = append(out.Rows, Table2Row{
				Dataset:   names[pi],
				Method:    method,
				Accuracy:  r.MeanAcc * 100,
				IQR:       r.Box.IQR() * 100,
				CostMACs:  r.Costs.TrainMACs,
				StorageMB: metrics.MB(r.Costs.StorageBytes),
				NetworkMB: metrics.MB(r.Costs.NetworkBytes),
			})
			key := names[pi] + "/" + method
			out.PerClient[key] = r.Box
			curve := r.CostCurve()
			curve.Name = key
			out.Curves[key] = curve
		}
	}
	return out
}

// String renders the paper's Table 2 layout: per dataset, each method's
// accuracy (with delta vs FedTrans), IQR, cost (with ratio vs FedTrans),
// storage, and network volume.
func (t Table2Result) String() string {
	tab := &metrics.Table{Header: []string{
		"Dataset", "Method", "Accu.(%)", "ΔAccu", "IQR(%)", "Cost(MACs)", "CostRatio", "Storage(MB)", "Network(MB)",
	}}
	ref := map[string]Table2Row{}
	for _, r := range t.Rows {
		if r.Method == "FedTrans" {
			ref[r.Dataset] = r
		}
	}
	for _, r := range t.Rows {
		base := ref[r.Dataset]
		delta, ratio := "-", "-"
		if r.Method != "FedTrans" {
			delta = fmt.Sprintf("↑%.2f", base.Accuracy-r.Accuracy)
			if base.CostMACs > 0 {
				ratio = fmtRatio(r.CostMACs / base.CostMACs)
			}
		}
		tab.AddRow(r.Dataset, r.Method,
			metrics.F(r.Accuracy, 2), delta, metrics.F(r.IQR, 2),
			fmt.Sprintf("%.3g", r.CostMACs), ratio,
			metrics.F(r.StorageMB, 3), metrics.F(r.NetworkMB, 2))
	}
	return tab.String()
}

// Figure6String renders the per-client accuracy box statistics (Figure 6).
func (t Table2Result) Figure6String() string {
	tab := &metrics.Table{Header: []string{"Dataset/Method", "Min", "Q1", "Median", "Q3", "Max"}}
	for _, r := range t.Rows {
		b := t.PerClient[r.Dataset+"/"+r.Method]
		tab.AddRow(r.Dataset+"/"+r.Method,
			metrics.F(b.Min, 3), metrics.F(b.Q1, 3), metrics.F(b.Median, 3),
			metrics.F(b.Q3, 3), metrics.F(b.Max, 3))
	}
	return tab.String()
}

// Figure7String renders the cost-to-accuracy series (Figure 7) as
// (MACs, accuracy) pairs per method.
func (t Table2Result) Figure7String() string {
	s := ""
	for _, r := range t.Rows {
		c := t.Curves[r.Dataset+"/"+r.Method]
		s += c.Name + ":"
		for i := range c.X {
			s += fmt.Sprintf(" (%.3g, %.3f)", c.X[i], c.Y[i])
		}
		s += "\n"
	}
	return s
}
