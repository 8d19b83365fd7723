package experiments

import (
	"strings"
	"testing"
)

// microScale keeps the heavier drivers testable in seconds.
func microScale() Scale {
	return Scale{Clients: 10, Rounds: 14, ClientsPerRound: 5, Seed: 3}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("four training runs")
	}
	res := RunTable1(microScale())
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (2 datasets x 2 variants)", len(res.Rows))
	}
	datasets := map[string]int{}
	for _, r := range res.Rows {
		datasets[r.Dataset]++
		if r.Accuracy <= 0 || r.Accuracy > 100 {
			t.Errorf("degenerate accuracy %v", r.Accuracy)
		}
	}
	if datasets["FEMNIST"] != 2 || datasets["CIFAR-10"] != 2 {
		t.Errorf("dataset coverage: %v", datasets)
	}
	if !strings.Contains(res.String(), "l2s") {
		t.Error("String() missing l2s variant")
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("five training runs")
	}
	res := RunTable3(microScale())
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	want := []string{"FedTrans", "FedTrans-l", "FedTrans-ls", "FedTrans-lsw", "FedTrans-lswd"}
	for i, r := range res.Rows {
		if r.Variant != want[i] {
			t.Errorf("row %d variant %q, want %q", i, r.Variant, want[i])
		}
		if r.CostMACs <= 0 {
			t.Errorf("row %d missing cost", i)
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("four training runs")
	}
	res := RunFigure8(microScale())
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	names := map[string]bool{}
	for _, r := range res.Rows {
		names[r.Method] = true
		if r.Accuracy <= 0 {
			t.Errorf("%s accuracy %v", r.Method, r.Accuracy)
		}
	}
	for _, want := range []string{"FedTrans+FedProx", "FedProx", "FedTrans+FedYogi", "FedYogi"} {
		if !names[want] {
			t.Errorf("missing method %q", want)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("many training runs")
	}
	res := RunFigure9(microScale())
	var ft, ref int
	for _, p := range res.Points {
		if p.FedTrans {
			ft++
		} else {
			ref++
		}
		if p.MACs <= 0 {
			t.Errorf("point %s missing MACs", p.Model)
		}
	}
	if ft == 0 || ref != 5 {
		t.Errorf("points: %d fedtrans, %d reference (want >=1 and 5)", ft, ref)
	}
}

func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("attention training")
	}
	res := RunTable4(microScale())
	if res.FedTransAcc <= 0 || res.FedAvgAcc <= 0 {
		t.Errorf("degenerate accuracies: %+v", res)
	}
	if res.FedTransMACs <= 0 || res.FedAvgMACs <= 0 {
		t.Errorf("degenerate costs: %+v", res)
	}
	if !strings.Contains(res.String(), "FedTrans+FedAvg") {
		t.Error("String() missing rows")
	}
}

func TestFigure2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("six runs")
	}
	res := RunFigure2(microScale())
	if len(res.Points) != 6 {
		t.Fatalf("points = %d, want 6", len(res.Points))
	}
	var cloud *Figure2Point
	for i := range res.Points {
		if res.Points[i].Method == "Cloud ML (bound)" {
			cloud = &res.Points[i]
		}
	}
	if cloud == nil {
		t.Fatal("missing cloud bound")
	}
}

func TestSweepDriversProduceAllPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("parameter sweeps")
	}
	sc := microScale()
	cases := []struct {
		name string
		res  SweepResult
		n    int
	}{
		{"beta", RunFigure10Beta(sc), 4},
		{"gamma", RunFigure10Gamma(sc), 4},
		{"widen", RunFigure11Widen(sc), 5},
		{"deepen", RunFigure11Deepen(sc), 3},
		{"h", RunFigure13(sc), 4},
	}
	for _, c := range cases {
		if len(c.res.Points) != c.n {
			t.Errorf("%s: %d points, want %d", c.name, len(c.res.Points), c.n)
		}
		if c.res.Param == "" {
			t.Errorf("%s: missing param label", c.name)
		}
	}
}
