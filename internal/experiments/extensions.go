package experiments

import (
	"fmt"

	"fedtrans/internal/baselines"
	"fedtrans/internal/device"
	"fedtrans/internal/fl"
	"fedtrans/internal/metrics"
	"fedtrans/internal/model"
	"fedtrans/internal/par"
)

// Figure8Row pairs an optimizer combination with its accuracy and cost.
type Figure8Row struct {
	Method   string
	Accuracy float64
	CostMACs float64
}

// Figure8Result reproduces Figure 8: FedTrans composes with FedProx and
// FedYogi and improves both.
type Figure8Result struct{ Rows []Figure8Row }

// RunFigure8 runs FedTrans+FedProx / FedProx / FedTrans+FedYogi / FedYogi
// on the femnist profile. The solo optimizers use the middle-sized model
// generated by FedTrans, per §5.2.
func RunFigure8(sc Scale) Figure8Result {
	var out Figure8Result
	add := func(name string, r fl.Result) {
		out.Rows = append(out.Rows, Figure8Row{Method: name, Accuracy: r.MeanAcc * 100, CostMACs: r.Costs.TrainMACs})
	}

	// FedTrans + FedProx.
	w := NewWorkload("femnist", sc, 1)
	cfgProx := fedTransConfig(sc)
	cfgProx.Local.ProxMu = 0.1
	rtProx := fl.New(cfgProx, w.Dataset, w.Trace, w.Initial)
	resProx := rtProx.Run()
	add("FedTrans+FedProx", resProx)
	midSpec := middleSpec(rtProx.Suite())

	// FedProx solo on the middle-sized FedTrans model.
	bcfg := baselineConfig(sc)
	add("FedProx", baselines.RunFedProx(bcfg, w.Dataset, w.Trace, midSpec, 0.1))

	// FedTrans + FedYogi.
	w2 := NewWorkload("femnist", sc, 1)
	cfgYogi := fedTransConfig(sc)
	cfgYogi.ServerYogi = true
	rtYogi := fl.New(cfgYogi, w2.Dataset, w2.Trace, w2.Initial)
	resYogi := rtYogi.Run()
	add("FedTrans+FedYogi", resYogi)
	midSpec2 := middleSpec(rtYogi.Suite())

	// FedYogi solo.
	add("FedYogi", baselines.RunFedYogi(bcfg, w2.Dataset, w2.Trace, midSpec2))
	return out
}

func middleSpec(suite []*model.Model) model.Spec {
	return suite[len(suite)/2].SpecLike()
}

// String renders Figure 8 rows.
func (f Figure8Result) String() string {
	tab := &metrics.Table{Header: []string{"Method", "Accu.(%)", "Cost(MACs)"}}
	for _, r := range f.Rows {
		tab.AddRow(r.Method, metrics.F(r.Accuracy, 2), fmt.Sprintf("%.3g", r.CostMACs))
	}
	return tab.String()
}

// Figure9Point is one model's (MACs, accuracy) frontier position.
type Figure9Point struct {
	Model    string
	MACs     float64
	Accuracy float64
	FedTrans bool
}

// Figure9Result reproduces Figure 9: FedTrans-transformed architectures
// dominate hand-designed reference models on the MACs/accuracy frontier.
type Figure9Result struct{ Points []Figure9Point }

// RunFigure9 fine-tunes up to four FedTrans-transformed architectures and
// five reference architectures with plain FedAvg (no capacity constraints,
// per Appendix A.1) and reports average accuracy vs model MACs.
func RunFigure9(sc Scale) Figure9Result {
	w := NewWorkload("femnist", sc, 1)
	rt := fl.New(fedTransConfig(sc), w.Dataset, w.Trace, w.Initial)
	rt.Run()
	suite := rt.Suite()

	// Sample up to 4 transformed architectures, spread across the suite.
	var transformed []model.Spec
	for _, idx := range spread(len(suite), 4) {
		transformed = append(transformed, suite[idx].SpecLike())
	}
	d := w.Dataset.FeatureDim
	cls := w.Dataset.Classes
	references := []struct {
		name string
		spec model.Spec
	}{
		// Hand-designed reference stacks with the paper models' relative
		// MACs ordering (EfficientNetV2 > ResNet > MobileNetV3 > V2).
		{"MobileNetV2-like", model.Spec{Family: "dense", Input: []int{d}, Hidden: []int{24}, Classes: cls}},
		{"MobileNetV3-like", model.Spec{Family: "dense", Input: []int{d}, Hidden: []int{40, 24}, Classes: cls}},
		{"ResNet18-like", model.Spec{Family: "dense", Input: []int{d}, Hidden: []int{64, 64}, Classes: cls}},
		{"ResNet34-like", model.Spec{Family: "dense", Input: []int{d}, Hidden: []int{64, 64, 64, 64}, Classes: cls}},
		{"EfficientNetV2-like", model.Spec{Family: "dense", Input: []int{d}, Hidden: []int{96, 96, 96}, Classes: cls}},
	}

	cfg := baselineConfig(sc)
	// Remove hardware constraints: a trace where every device fits every
	// model.
	freeTrace := unconstrainedTrace(w, 1e12)
	type job struct {
		name     string
		spec     model.Spec
		fedtrans bool
	}
	var jobs []job
	for i, spec := range transformed {
		jobs = append(jobs, job{fmt.Sprintf("FedTrans-%d", i), spec, true})
	}
	for _, r := range references {
		jobs = append(jobs, job{r.name, r.spec, false})
	}
	out := Figure9Result{Points: make([]Figure9Point, len(jobs))}
	par.ForN(len(jobs), func(i int) {
		res := baselines.RunFedAvg(cfg, w.Dataset, freeTrace, jobs[i].spec)
		out.Points[i] = Figure9Point{
			Model: jobs[i].name, MACs: specMACs(jobs[i].spec),
			Accuracy: res.MeanAcc * 100, FedTrans: jobs[i].fedtrans,
		}
	})
	return out
}

func spread(n, k int) []int {
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = i * (n - 1) / (k - 1)
	}
	return out
}

func unconstrainedTrace(w Workload, capacity float64) *device.Trace {
	tr := &device.Trace{Devices: append([]device.Device(nil), w.Trace.Devices...)}
	for i := range tr.Devices {
		tr.Devices[i].CapacityMACs = capacity
	}
	return tr
}

// String renders the frontier.
func (f Figure9Result) String() string {
	tab := &metrics.Table{Header: []string{"Model", "MACs", "Accu.(%)", "Source"}}
	for _, p := range f.Points {
		src := "reference"
		if p.FedTrans {
			src = "fedtrans"
		}
		tab.AddRow(p.Model, fmt.Sprintf("%.3g", p.MACs), metrics.F(p.Accuracy, 2), src)
	}
	return tab.String()
}

// Table4Result reproduces the ViT generality experiment (Table 4).
type Table4Result struct {
	FedTransAcc  float64
	FedTransMACs float64
	FedAvgAcc    float64
	FedAvgMACs   float64
}

// RunTable4 runs FedTrans+FedAvg on an attention-cell (ViT-like) initial
// model against plain FedAvg on the middle-sized generated model.
func RunTable4(sc Scale) Table4Result {
	w := NewWorkload("vit", sc, 1)
	cfg := fedTransConfig(sc)
	rt := fl.New(cfg, w.Dataset, w.Trace, w.Initial)
	res := rt.Run()
	mid := middleSpec(rt.Suite())
	avg := baselines.RunFedAvg(baselineConfig(sc), w.Dataset, w.Trace, mid)
	return Table4Result{
		FedTransAcc: res.MeanAcc * 100, FedTransMACs: res.Costs.TrainMACs,
		FedAvgAcc: avg.MeanAcc * 100, FedAvgMACs: avg.Costs.TrainMACs,
	}
}

// String renders Table 4.
func (t Table4Result) String() string {
	tab := &metrics.Table{Header: []string{"Method", "Accu.(%)", "Cost(MACs)"}}
	tab.AddRow("FedTrans+FedAvg", metrics.F(t.FedTransAcc, 1), fmt.Sprintf("%.3g", t.FedTransMACs))
	tab.AddRow("FedAvg", metrics.F(t.FedAvgAcc, 1), fmt.Sprintf("%.3g", t.FedAvgMACs))
	return tab.String()
}

// Table5Result reproduces the overhead analysis (Table 5 / Appendix B):
// measured coordinator bookkeeping volumes vs the analytic estimates.
type Table5Result struct {
	Clients, Models, Rounds int
	Participants            int
	Overhead                fl.Overhead
	// AnalyticUtilityOps is r*(m_participating*n+1)*c's dominant term
	// r*p*n, for comparison with the measured counter.
	AnalyticUtilityOps int64
}

// RunTable5 runs FedTrans and reports the overhead counters.
func RunTable5(sc Scale) Table5Result {
	w := NewWorkload("femnist", sc, 1)
	cfg := fedTransConfig(sc)
	rt := fl.New(cfg, w.Dataset, w.Trace, w.Initial)
	res := rt.Run()
	n := len(rt.Suite())
	return Table5Result{
		Clients:            len(w.Dataset.Clients),
		Models:             n,
		Rounds:             res.RoundsRun,
		Participants:       cfg.ClientsPerRound,
		Overhead:           res.Overhead,
		AnalyticUtilityOps: int64(res.RoundsRun) * int64(cfg.ClientsPerRound) * int64(n),
	}
}

// String renders Table 5.
func (t Table5Result) String() string {
	tab := &metrics.Table{Header: []string{"Overhead", "Measured", "Analytic bound"}}
	tab.AddRow("client computation", "0", "0")
	tab.AddRow("client communication", fmt.Sprintf("%d floats", t.Rounds*t.Participants), "r*p*c")
	tab.AddRow("coordinator utility updates", fmt.Sprintf("%d", t.Overhead.UtilityUpdates),
		fmt.Sprintf("<= r*p*n = %d", t.AnalyticUtilityOps))
	tab.AddRow("coordinator DoC updates", fmt.Sprintf("%d", t.Overhead.DoCUpdates), fmt.Sprintf("r = %d", t.Rounds))
	tab.AddRow("coordinator transforms", fmt.Sprintf("%d", t.Overhead.Transforms), "O(1) per new model")
	return tab.String()
}

// Table6Result reproduces the straggler mitigation comparison (Table 6):
// round completion time of FedTrans vs FedAvg.
type Table6Result struct {
	FedTransMean, FedTransStd float64
	FedAvgMean, FedAvgStd     float64
}

// RunTable6 compares simulated round completion times on the femnist
// profile; FedAvg gives every client the same (largest) model while
// FedTrans respects capacity constraints.
func RunTable6(sc Scale) Table6Result {
	w := NewWorkload("femnist", sc, 1)
	largest, ft := LargestSpec(w, sc)
	avg := baselines.RunFedAvg(baselineConfig(sc), w.Dataset, w.Trace, largest)
	ftTimes, avgTimes := ft.RoundTimes(), avg.RoundTimes()
	return Table6Result{
		FedTransMean: metrics.Mean(ftTimes), FedTransStd: metrics.Std(ftTimes),
		FedAvgMean: metrics.Mean(avgTimes), FedAvgStd: metrics.Std(avgTimes),
	}
}

// String renders Table 6.
func (t Table6Result) String() string {
	tab := &metrics.Table{Header: []string{"Method", "Avg.(s)", "Std.(s)"}}
	tab.AddRow("FedTrans+FedAvg", metrics.F(t.FedTransMean, 2), metrics.F(t.FedTransStd, 2))
	tab.AddRow("FedAvg", metrics.F(t.FedAvgMean, 2), metrics.F(t.FedAvgStd, 2))
	return tab.String()
}
