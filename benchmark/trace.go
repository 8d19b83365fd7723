//go:build layers

package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"fedtrans"
	"fedtrans/benchmark/layers"
)

func simdLevel() string { return layers.SIMDLevel() }

const (
	tracedSegments = 3   // traced segments, alternated with as many untraced ones
	stageSamples   = 200 // a stage is sampled until it has this many samples or its time share is spent
	burstFrames    = 5000
)

// runTraced is the traced run of one workload:
//
//	(a) segments of sub-seed 0 with a span around every public call,
//	    alternated with untraced segments to measure what tracing costs;
//	(b) the layer replay: the workload's unit of work rebuilt stage by
//	    stage on the same profile, model, batch and seed, each stage under
//	    its own span.
//
// It prints every per-layer metric and writes the spans to
// <traceOut>/trace-<workload>.json.
func runTraced(cfg runConfig, traceOut string, out io.Writer) (result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.smoke, cfg.scratch)
	if err != nil {
		return result{}, err
	}
	r := newRunner(w)
	if _, err := r.setUp(1); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	res := result{Metrics: map[string]metric{}}
	tr := newTracer(fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	root := tr.begin(0, "traced-run:"+cfg.workload)

	// (a) traced and untraced segments, alternating.
	var plain, traced []segment
	n := tracedSegments
	if cfg.smoke {
		n = 1
	}
	for i := 0; i < n; i++ {
		seg, err := r.segment(0, nil, 0)
		if err != nil {
			return result{}, err
		}
		plain = append(plain, seg)
		id := tr.begin(root, "segment")
		seg, err = r.segment(0, tr, id)
		tr.end(id)
		if err != nil {
			return result{}, err
		}
		traced = append(traced, seg)
	}
	for _, seg := range append(plain, traced...) {
		res.Attempted += seg.ops
		res.Failed += seg.failed
	}
	if len(r.broken) > 0 {
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0
	med := func(segs []segment, f func(segment) float64) float64 {
		var xs []float64
		for _, s := range segs {
			xs = append(xs, f(s))
		}
		return median(xs)
	}
	all := append(plain, traced...)
	wall := med(plain, func(s segment) float64 { return s.wall.Seconds() })
	cpu := med(all, func(s segment) float64 { return s.cpu.Seconds() })
	one := traced[0]

	// (b) layer replay.
	opts, blob, typical, scale, err := w.deployable()
	if err != nil {
		return result{}, err
	}
	lcfg := layers.Config{
		Profile: opts.Profile, Seed: opts.Seed, LargestBlob: blob, TypicalBlob: typical,
		Steps: opts.LocalSteps, Batch: opts.BatchSize, LR: opts.LearningRate,
		Clients: opts.Clients, Population: opts.Population,
		ClientsPerRound: opts.ClientsPerRound, Rounds: opts.Rounds,
		EvalClients:     opts.Clients,
		EdgeAggregators: opts.EdgeAggregators, CheckpointEvery: opts.CheckpointEvery,
		Networked: opts.ServeAddr != "",
	}
	if opts.Population > 0 {
		lcfg.EvalClients = opts.Population
	}
	if opts.EvalSample > 0 {
		lcfg.EvalClients = min(lcfg.EvalClients, opts.EvalSample)
	}
	internal, closeStages, err := layers.Stages(lcfg)
	if err != nil {
		return result{}, err
	}
	defer closeStages()
	public, closePublic, err := publicStages(opts, blob, cfg.seed)
	if err != nil {
		return result{}, err
	}
	defer closePublic()
	stages := append(internal, public...)

	replay := tr.begin(root, "layer-replay")
	share := time.Duration(cfg.seconds / 2 * float64(time.Second) / float64(len(stages)))
	attributed, trainEval := 0.0, 0.0
	// A training segment is one session of one.ops updates; a serving
	// segment is one.frames frames and no session.
	sessions, updates := int64(0), int64(0)
	if one.rounds > 0 {
		sessions, updates = 1, one.ops
	}
	for _, st := range stages {
		id := tr.begin(replay, st.Name)
		var v float64
		samples := 1
		if st.Measure != nil {
			v, err = st.Measure()
			if err != nil {
				return result{}, fmt.Errorf("%s: %w", st.Name, err)
			}
		} else {
			ns := sampleStage(st.Op, share, cfg.smoke)
			samples = len(ns)
			perCall := median(ns) / float64(max(st.Iters, 1))
			v = st.Value(perCall)
			calls := st.PerUpdate*float64(updates) + st.PerRound*float64(one.rounds) +
				st.PerSession*float64(sessions) + st.PerFrame*float64(one.frames)
			if st.ModelSized {
				calls *= scale
			}
			attributed += calls * perCall
			if st.Name == "fl.train_local_us" || st.Name == "fl.evaluate_on_us" {
				trainEval += calls * perCall
			}
		}
		tr.end(id)
		res.Metrics[st.Name] = metric{Value: v, Unit: st.Unit, n: samples}
	}
	// netcoord.wire_us_per_update is a Measure stage (a difference of two
	// medians), so its attribution is added here.
	if lcfg.Networked {
		attributed += res.Metrics["netcoord.wire_us_per_update"].Value * 1e3 * float64(one.ops)
	}
	tr.end(replay)
	tr.end(root)

	put := func(name string, v float64, n int) { res.put(perLayer, name, v, n) }
	ops := float64(one.ops)
	put("fl.coord_us_per_update", (cpu*1e9-trainEval)/ops/1e3, len(all))
	put("proc.cpu_s_per_segment", cpu, len(all))
	put("proc.cpu_util", cpu/med(all, func(s segment) float64 { return s.wall.Seconds() })/float64(runtime.GOMAXPROCS(0)), len(all))
	put("proc.peak_rss_mb", peakRSSMB(), 1)
	put("proc.gc_cycles_per_segment", med(all, func(s segment) float64 { return float64(s.gcCycles) }), len(all))
	put("proc.gc_pause_ms_per_segment", med(all, func(s segment) float64 { return s.gcPause.Seconds() * 1e3 }), len(all))
	put("proc.mallocs_per_op", med(all, func(s segment) float64 { return float64(s.allocN) })/ops, len(all))
	put("trace.attributed_share", attributed/(cpu*1e9), len(stages))
	put("trace.overhead_share", med(traced, func(s segment) float64 { return s.wall.Seconds() })/wall-1, len(all))

	for _, m := range perLayer {
		if _, ok := res.Metrics[m.name]; !ok {
			return result{}, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		return result{}, fmt.Errorf("%d metrics measured, %d declared", len(res.Metrics), len(perLayer))
	}
	if err := os.MkdirAll(traceOut, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(traceOut, "trace-"+cfg.workload+".json")
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	printReport(out, cfg, perLayer, res, nil, r.broken)
	fmt.Fprintf(out, "  %d spans written to %s\n", len(tr.spans), path)
	return res, nil
}

// sampleStage times op once per sample until it has stageSamples
// samples or has used its share of the run (at least three samples).
func sampleStage(op func(), share time.Duration, smoke bool) []float64 {
	op() // fill workspaces and pools
	want := stageSamples
	if smoke {
		want = 3
	}
	var ns []float64
	start := time.Now()
	for len(ns) < want && (len(ns) < 3 || time.Since(start) < share) {
		t0 := time.Now()
		op()
		ns = append(ns, float64(time.Since(t0)))
	}
	return ns
}

// publicStages are the per-layer stages of the fedtrans package itself:
// they need nothing but the public API.
func publicStages(opts fedtrans.Options, blob []byte, seed int64) ([]layers.Stage, func(), error) {
	d, err := fedtrans.LoadModel(blob)
	if err != nil {
		return nil, nil, err
	}
	rows := featureRows(seed, distinctRows, d.InputDim())
	want := make([]int, len(rows))
	for i, row := range rows {
		if want[i], err = d.Predict(row); err != nil {
			return nil, nil, err
		}
	}
	srv := fedtrans.NewInferenceServer(d, 0)
	const calls = 100
	var classes [agentWorkers][frameRows]int

	// One burst of the serve_tcp closed loop against this model gives the
	// frame latency percentiles.
	burst := &serveWorkload{k: 1, frames: burstFrames, rows: rows, members: []served{{d: d, want: want}}}
	var latency []int64
	frame := func(p float64) func() (float64, error) {
		return func() (float64, error) {
			if latency == nil {
				seg, err := burst.run(0, nil, 0)
				if err != nil {
					return 0, err
				}
				if seg.failed > 0 {
					return 0, fmt.Errorf("%d wrong classes over TCP", seg.failed)
				}
				latency = seg.latency
				slices.Sort(latency)
			}
			return float64(percentile(latency, p)) / 1e3, nil
		}
	}
	nFrames := len(rows) / frameRows
	stages := []layers.Stage{
		{Name: "fedtrans.new_session_ms", Unit: "ms", PerSession: 1, Value: layers.Ms, Op: func() {
			if s, err := fedtrans.NewSession(opts); err == nil {
				s.Close()
			}
		}},
		{Name: "fedtrans.load_model_us", Unit: "us", Value: layers.Us, Op: func() { fedtrans.LoadModel(blob) }},
		{Name: "fedtrans.predict_ns", Unit: "ns", Value: layers.Ns, Iters: calls, Op: func() {
			for i := 0; i < calls; i++ {
				d.Predict(rows[i])
			}
		}},
		{Name: "fedtrans.batch_row_ns", Unit: "ns", Value: layers.Ns, Iters: calls * 2 * frameRows, Op: func() {
			for i := 0; i < calls; i++ {
				d.PredictBatch(rows[:2*frameRows])
			}
		}},
		// Two callers, as serve_tcp has two connections: the dispatcher can
		// coalesce their frames. TCP frame time minus this is the wire's share.
		{Name: "fedtrans.server_row_ns", Unit: "ns", Value: layers.Ns, Iters: calls * agentWorkers * frameRows, PerFrame: frameRows, Op: func() {
			var wg sync.WaitGroup
			for c := 0; c < agentWorkers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < calls; i++ {
						lo := i % nFrames * frameRows
						srv.PredictBatchInto(rows[lo:lo+frameRows], classes[c][:])
					}
				}()
			}
			wg.Wait()
		}},
		{Name: "fedtrans.tcp_frame_p50_us", Unit: "us", Measure: frame(50)},
		{Name: "fedtrans.tcp_frame_p99_us", Unit: "us", Measure: frame(99)},
	}
	return stages, srv.Close, nil
}
