// Package layers is the only part of the benchmark that imports
// fedtrans/internal/...: it binds the layer replay of the traced run to
// exported internal functions, one Stage per per-layer metric. Every
// binding has a production caller outside tests, and none is on the
// ROADMAP's delete/merge list (allocating MatMul*, QuantizeAll, TopK,
// RoundTripLoss, Naive*, Ref64*, AddQuantized, par.Stream,
// internal/report). The package only says what to call and how to turn
// a time into a metric; timing, spans and statistics stay in the main
// package.
package layers

import (
	"fmt"
	"math/rand"

	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/model"
	"fedtrans/internal/tensor"
)

// Config describes the workload whose unit of work is replayed. The
// fields mirror the public fedtrans.Options the workload runs with.
type Config struct {
	Profile         string // dataset profile
	Seed            int64
	LargestBlob     []byte // the largest model of the workload's trained suite (Session.ExportModel): kernel shapes
	TypicalBlob     []byte // the suite model nearest the session's mean trained MACs per sample: the unit of work
	Steps, Batch    int    // local training
	LR              float64
	Clients         int // materialized clients
	Population      int // > 0: generative population
	ClientsPerRound int
	Rounds          int
	EvalClients     int // clients scored per evaluation pass
	EdgeAggregators int
	CheckpointEvery int
	Networked       bool // updates cross FTNC to agents
}

// Stage is one per-layer metric and the call that measures it.
type Stage struct {
	Name, Unit string
	// Op is timed by the caller, once per sample. Iters is the number of
	// calls of the bound function one Op makes (default 1): Value
	// receives the median time of a single call in ns.
	Op    func()
	Iters int
	Value func(ns float64) float64
	// Measure replaces Op for a metric that is not a time per call.
	Measure func() (float64, error)
	// PerUpdate, PerRound, PerSession and PerFrame are the calls of this
	// stage the workload's configuration fixes per client update, per
	// round, per training session and per prediction frame; the caller
	// multiplies them by the median to attribute the segment's CPU time.
	// Zero on stages nested inside another stage.
	PerUpdate, PerRound, PerSession, PerFrame float64
	// ModelSized marks a stage whose cost grows with the model it runs:
	// the caller scales its calls by the session's mean trained MACs per
	// sample over the MACs of the replayed model.
	ModelSized bool
}

// SIMDLevel is the kernel tier the tensor package dispatches to.
func SIMDLevel() string { return tensor.CurrentSIMDLevel().String() }

// Us, Ms and Ns are the usual Stage.Value conversions from ns per call.
func Us(ns float64) float64 { return ns / 1e3 }
func Ms(ns float64) float64 { return ns / 1e6 }
func Ns(ns float64) float64 { return ns }

// evalPasses: fl.Config.EvalEvery defaults to 5, plus the final sweep.
func evalPasses(rounds int) int { return rounds/5 + 1 }

// dataConfig is the data.Config fedtrans.NewSession derives from Options.
func dataConfig(profile string, clients int, seed int64) data.Config {
	c := data.Config{Profile: profile, Clients: clients, Heterogeneity: 1, Seed: seed}
	switch profile {
	case "async":
		c.Profile = "femnist"
	case "scale":
		c.MinSamples, c.MaxSamples, c.TestSamples = 8, 16, 8
	}
	return c
}

// initialSpec is the per-profile initial model of fedtrans.NewSession.
func initialSpec(profile string, ds *data.Dataset) model.Spec {
	switch profile {
	case "cifar10":
		return model.MobileNetLikeSpec(ds.InputShape[0], ds.InputShape[1], ds.InputShape[2], ds.Classes)
	case "speech", "openimage":
		return model.ResNetLikeSpec(ds.InputShape[0], ds.InputShape[1], ds.InputShape[2], ds.Classes)
	case "vit":
		return model.ViTLikeSpec(ds.InputShape[0], ds.InputShape[1], 8, ds.Classes)
	}
	return model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes)
}

// world is the state the stages share: the workload's dataset, device
// trace and models, rebuilt from Config the way NewSession builds them.
type world struct {
	cfg   Config
	rng   *rand.Rand
	ds    *data.Dataset // materialized or generative, as the workload runs
	trace *device.Trace
	spec  model.Spec
	small *model.Model // initial model
	big   *model.Model // the workload's largest trained model
	unit  *model.Model // the model a typical update trains
	suite []*model.Model
	batch int
	// trainLocalNs is the median of fl.train_local_us, kept for the wire
	// stage that subtracts it from the networked round trip.
	trainLocalNs float64
}

func newWorld(cfg Config) (*world, error) {
	w := &world{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), batch: cfg.Batch}
	n := cfg.Clients
	if cfg.Population > 0 {
		n = cfg.Population
		w.ds = data.GenerateLazy(dataConfig(cfg.Profile, n, cfg.Seed))
	} else {
		w.ds = data.Generate(dataConfig(cfg.Profile, n, cfg.Seed))
	}
	w.spec = initialSpec(cfg.Profile, w.ds)
	gen := model.NewIDGen()
	w.small = w.spec.BuildScoped(w.rng, gen)
	load := func(blob []byte) (*model.Model, error) {
		m, err := model.UnmarshalModelScoped(blob, gen)
		if err != nil {
			return nil, fmt.Errorf("layers: workload model: %w", err)
		}
		return m.Derive(1), nil // a fresh ID: the three models form a suite
	}
	var err error
	if w.big, err = load(cfg.LargestBlob); err != nil {
		return nil, err
	}
	if w.unit, err = load(cfg.TypicalBlob); err != nil {
		return nil, err
	}
	w.suite = []*model.Model{w.small, w.unit, w.big}
	base := w.small.MACsPerSample()
	tcfg := device.TraceConfig{N: n, MinCapacityMACs: base, MaxCapacityMACs: base * 32, Seed: cfg.Seed + 100}
	if cfg.Population > 0 {
		w.trace = device.NewTraceLazy(tcfg)
	} else {
		w.trace = device.NewTrace(tcfg)
	}
	return w, nil
}

// Stages lists every per-layer stage for the workload. The returned
// function releases what the stages hold (listeners, agent pools).
func Stages(cfg Config) ([]Stage, func(), error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, nil, err
	}
	var stages []Stage
	stages = append(stages, tensorStages(w)...)
	nnStages, err := nnStages(w)
	if err != nil {
		return nil, nil, err
	}
	stages = append(stages, nnStages...)
	stages = append(stages, modelStages(w)...)
	stages = append(stages, coordStages(w)...)
	wire, closeWire, err := wireStages(w)
	if err != nil {
		return nil, nil, err
	}
	stages = append(stages, wire...)
	return stages, closeWire, nil
}
