package layers

import (
	"runtime"

	"fedtrans/internal/aggregate"
	"fedtrans/internal/assign"
	"fedtrans/internal/codec"
	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/fl"
	"fedtrans/internal/model"
	"fedtrans/internal/par"
	"fedtrans/internal/tensor"
	"fedtrans/internal/transform"
)

// materializedClients is the client count data.generate_ms and
// device.trace_ms are measured at (Options.Clients default), whatever
// the workload's population, so the two are comparable across workloads.
const materializedClients = 50

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// uploadLike returns zero tensors shaped like m's parameters.
func uploadLike(m *model.Model) []*tensor.Tensor {
	var out []*tensor.Tensor
	for _, p := range m.Params() {
		out = append(out, tensor.New(p.Shape...))
	}
	return out
}

// coordStages are the coordinator-side stages: everything a round does
// around local training. Their call counts carry the attribution.
func coordStages(w *world) []Stage {
	cfg := w.cfg
	n := w.ds.Len()
	local := fl.LocalConfig{Steps: cfg.Steps, BatchSize: cfg.Batch, LR: cfg.LR}
	tiered := cfg.EdgeAggregators > 1

	// data / device
	dcfg := dataConfig(cfg.Profile, materializedClients, cfg.Seed)
	lazy := data.GenerateLazy(dataConfig(cfg.Profile, max(n, 1000), cfg.Seed))
	var cur data.ClientCursor
	next := 0
	client := func() int { next = (next + 1) % lazy.Len(); return next }
	base := w.small.MACsPerSample()
	tcfg := device.TraceConfig{N: materializedClients, MinCapacityMACs: base, MaxCapacityMACs: base * 32, Seed: cfg.Seed + 100}
	lazyTrace := device.NewTraceLazy(device.TraceConfig{N: max(n, 1000), MinCapacityMACs: base, MaxCapacityMACs: base * 32, Seed: cfg.Seed + 100})

	// assignment
	mgr := assign.NewManager(n)
	var compat []*model.Model
	capacity := w.trace.CapacityBound()

	// aggregation: the update is the model's own weights
	dst := w.unit.Clone()
	update := aggregate.Update{ModelID: dst.ID, Weights: w.unit.Params(), Samples: 12, Loss: 1}
	streaming, edges := aggregate.NewStreaming(), aggregate.NewTiered(max(cfg.EdgeAggregators, 4))
	finalizing := aggregate.NewStreaming()
	var addNs float64
	softSuite := []*model.Model{w.small.Clone(), w.unit.Clone(), w.big.Clone()}

	// codec
	params := w.unit.Params()
	blob := codec.AppendEncode(nil, params)
	decoded := uploadLike(w.unit)
	mbPerS := func(ns float64) float64 { return float64(len(blob)) / ns * 1e3 }

	// local training, as agents and the in-process session pool run it
	trainer := fl.NewClientTrainer(w.ds, w.unit.Clone())
	upload := uploadLike(w.unit)
	evalModel := w.unit.Clone()
	var evalCur data.ClientCursor

	// checkpoint of a freshly built runtime (suite of one, no history)
	fcfg := fl.DefaultConfig()
	fcfg.Rounds, fcfg.ClientsPerRound, fcfg.Local, fcfg.Seed = cfg.Rounds, cfg.ClientsPerRound, local, cfg.Seed
	fcfg.EdgeAggregators = cfg.EdgeAggregators
	rt := fl.New(fcfg, w.ds, w.trace, w.spec)
	checkpoints := 0.0
	if cfg.CheckpointEvery > 0 {
		checkpoints = float64((cfg.Rounds - 1) / cfg.CheckpointEvery)
	}

	act := make([]float64, w.unit.NumCells())
	for i := range act {
		act[i] = 1
	}
	tcf := transform.DefaultConfig()

	const tasks = 1000
	stream := par.NewTaskStream(runtime.GOMAXPROCS(0))

	return []Stage{
		{Name: "data.generate_ms", Unit: "ms", Value: Ms, Op: func() { data.Generate(dcfg) }},
		{Name: "data.synth_us", Unit: "us", Value: Us, Op: func() { lazy.Fetch(&cur, client()) }},
		{Name: "device.trace_ms", Unit: "ms", Value: Ms, Op: func() { device.NewTrace(tcfg) }},
		{Name: "device.at_ns", Unit: "ns", Value: Ns, Iters: tasks, PerUpdate: 1, Op: func() {
			for i := 0; i < tasks; i++ {
				lazyTrace.At(client())
			}
		}},

		{Name: "fl.select_us", Unit: "us", Value: Us, PerRound: 1, Op: func() { fl.SelectClients(n, cfg.ClientsPerRound, w.rng) }},
		{Name: "assign.sample_ns", Unit: "ns", Value: Ns, Iters: tasks, PerUpdate: 1, Op: func() {
			for i := 0; i < tasks; i++ {
				compat = assign.CompatibleInto(compat[:0], w.suite, capacity)
				mgr.Sample(i%n, compat, w.rng)
			}
		}},
		{Name: "assign.update_joint_ns", Unit: "ns", Value: Ns, Iters: tasks, PerUpdate: 1, Op: func() {
			for i := 0; i < tasks; i++ {
				mgr.UpdateJoint(i%n, w.unit, 0.1, w.suite)
			}
		}},
		{Name: "transform.apply_us", Unit: "us", Value: Us, PerSession: 1, Op: func() {
			transform.Apply(w.unit, transform.SelectCells(w.unit, act, tcf, w.rng), tcf, 1, w.rng)
		}},

		{Name: "aggregate.add_us", Unit: "us", PerUpdate: b2f(!tiered), Op: func() { streaming.Add(dst, update) },
			Value: func(ns float64) float64 { addNs = ns; return Us(ns) }},
		{Name: "aggregate.tiered_add_us", Unit: "us", Value: Us, PerUpdate: b2f(tiered), Op: func() { edges.Add(dst, update) }},
		// One Add then Finalize; the Add measured above is subtracted.
		{Name: "aggregate.finalize_us", Unit: "us", PerRound: float64(len(w.suite)), Op: func() {
			finalizing.Add(dst, update)
			finalizing.Finalize(dst)
		}, Value: func(ns float64) float64 { return Us(max(ns-addNs, 0)) }},
		{Name: "aggregate.soft_us", Unit: "us", Value: Us, PerRound: 1, Op: func() {
			aggregate.SoftAggregate(softSuite, 5, aggregate.DefaultSoftConfig())
		}},

		{Name: "codec.encode_mb_s", Unit: "MB/s", Value: mbPerS, Op: func() { blob = codec.AppendEncode(blob[:0], params) }},
		{Name: "codec.decode_mb_s", Unit: "MB/s", Value: mbPerS, Op: func() { codec.DecodeInto(decoded, blob) }},

		{Name: "fl.train_local_us", Unit: "us", PerUpdate: 1, ModelSized: true, Op: func() {
			trainer.Train(client()%n, local, cfg.Seed, upload)
		}, Value: func(ns float64) float64 { w.trainLocalNs = ns; return Us(ns) }},
		{Name: "fl.evaluate_on_us", Unit: "us", Value: Us, ModelSized: true, PerSession: float64(evalPasses(cfg.Rounds) * cfg.EvalClients), Op: func() {
			fl.EvaluateOn(evalModel, w.ds.Fetch(&evalCur, client()%n))
		}},
		{Name: "fl.checkpoint_ms", Unit: "ms", Value: Ms, PerSession: checkpoints, Op: func() { rt.Checkpoint() }},

		{Name: "par.stream_ns_per_task", Unit: "ns", Value: Ns, Iters: tasks, Op: func() {
			par.StreamErr(tasks, 2*runtime.GOMAXPROCS(0), func(int) {}, func(int) error { return nil })
		}},
		{Name: "par.taskstream_ns_per_task", Unit: "ns", Value: Ns, Iters: tasks, Op: func() {
			for i := 0; i < tasks; i++ {
				stream.Wait(stream.Go(func() {}))
			}
		}},
	}
}
