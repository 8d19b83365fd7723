// Package baselines re-implements the multi-model FL systems the paper
// compares against: HeteroFL (Diao et al., ICLR 2020), SplitMix (Hong et
// al., ICLR 2022), and FLuID (Wang et al., NeurIPS 2024), plus thin
// wrappers for single-model FedAvg / FedProx / FedYogi on top of the
// shared runtime. Each re-implementation is faithful at the level the
// paper's evaluation compares them — submodel construction, client
// assignment, and aggregation rules — while sharing this repository's
// training substrate.
//
// The three multi-model baselines share one round loop, run, and differ
// only in their method. The contract between the two:
//
//   - run owns the rng between rounds: it draws each round's selection
//     from it and then hands the round to the method. A method that
//     trains on the shared rng (FLuID, SplitMix) must do so serially, in
//     selection order; one that trains in parallel (HeteroFL) seeds a
//     private stream per (round, client) and leaves the shared rng alone.
//   - charge is the cost ledger's only entry. Training MACs are a
//     floating-point sum, so the order of charge calls is the order of
//     the ledger: a method calls it once per selected client, in
//     selection order, whatever order the training itself ran in.
//   - The means divide (aggregate.MaskedMean): sum/weight and
//     sum·(1/weight) differ in the last bit, and Table 2 is pinned bit
//     for bit (TestGoldenResults).
package baselines

import (
	"math/rand"

	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/fl"
	"fedtrans/internal/metrics"
	"fedtrans/internal/model"
)

// Config is the shared baseline configuration.
type Config struct {
	Rounds          int
	ClientsPerRound int
	Local           fl.LocalConfig
	EvalEvery       int
	Seed            int64
}

// DefaultConfig mirrors fl.DefaultConfig for fair comparison.
func DefaultConfig() Config {
	d := fl.DefaultConfig()
	return Config{
		Rounds:          d.Rounds,
		ClientsPerRound: d.ClientsPerRound,
		Local:           d.Local,
		EvalEvery:       d.EvalEvery,
		Seed:            d.Seed,
	}
}

// method is what distinguishes one multi-model baseline from another.
type method interface {
	// suite lists the models the server stores, in the order the result
	// reports them.
	suite() []*model.Model
	// round trains the selected clients and folds their updates into the
	// suite. It reports every client through charge, in selection order,
	// with the models that client trained.
	round(r int, selected []int, charge func(client int, trained ...*model.Model))
	// evaluate returns every client's accuracy on what it can run.
	evaluate() []float64
}

// run is the round loop of every multi-model baseline: select, hand the
// round to the method, settle the ledger and the round's simulated time,
// evaluate on schedule. A client's time is the sum over the models it
// trained; a round takes as long as its slowest client. Each round's
// Log record holds what Result's projections read: its time, the
// cumulative training MACs and, when evaluated, the mean accuracy.
func run(cfg Config, ds *data.Dataset, trace *device.Trace, rng *rand.Rand, m method) fl.Result {
	var res fl.Result
	var storage int64
	for _, sm := range m.suite() {
		storage += sm.Bytes()
	}
	res.Costs.ObserveStorage(storage)
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 5
	}
	steps, batch := cfg.Local.Steps, cfg.Local.BatchSize
	for round := 0; round < cfg.Rounds; round++ {
		selected := fl.SelectClients(len(ds.Clients), cfg.ClientsPerRound, rng)
		roundTime := 0.0
		m.round(round, selected, func(client int, trained ...*model.Model) {
			clientTime := 0.0
			for _, tm := range trained {
				res.Costs.AddTraining(tm.MACsPerSample(), steps, batch)
				res.Costs.AddTransfer(tm.Bytes())
				clientTime += trace.TrainingTime(client, tm.MACsPerSample(), steps, batch, tm.Bytes())
			}
			if clientTime > roundTime {
				roundTime = clientTime
			}
		})
		res.RoundsRun = round + 1
		l := fl.RoundLog{Round: round, RoundTime: roundTime, TrainMACs: res.Costs.TrainMACs}
		l.Evaluated = (round+1)%evalEvery == 0 || round == cfg.Rounds-1
		if l.Evaluated {
			res.ClientAcc = m.evaluate()
			l.MeanAcc = metrics.Mean(res.ClientAcc)
		}
		res.Log = append(res.Log, l)
	}
	if res.ClientAcc == nil { // no round ran
		res.ClientAcc = m.evaluate()
	}
	res.MeanAcc = metrics.Mean(res.ClientAcc)
	res.Box = metrics.Box(res.ClientAcc)
	for _, sm := range m.suite() {
		res.SuiteArch = append(res.SuiteArch, sm.ArchString())
		res.SuiteMACs = append(res.SuiteMACs, sm.MACsPerSample())
	}
	return res
}
