package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"slices"
	"time"
)

// metric is one reported value. N is the number of samples behind it
// (printed in the report, left out of the driver's result line).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// result is the last line of standard output, as the driver reads it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metricSpec struct{ name, unit string }

// put records a metric under the unit its spec declares; a name that is
// not in specs is dropped, so nothing undeclared reaches the driver.
func (r *result) put(specs []metricSpec, name string, v float64, n int) {
	for _, m := range specs {
		if m.name == name {
			r.Metrics[name] = metric{Value: v, Unit: m.unit, n: n}
		}
	}
}

// endToEnd names every end-to-end metric; BENCHMARK.json repeats the
// list with directions and bounds, and a test keeps the two equal.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"alloc_b_per_op", "B"},
	{"tail_latency_us", "us"},
	{"final_accuracy", "fraction"},
	{"train_gmacs", "GMAC"},
	{"network_mb", "MB"},
	{"sim_wallclock_s", "s"},
}

// perLayer names every metric of the traced run, layer (package) first.
var perLayer = []metricSpec{
	{"tensor.gemm_b10_gflops", "GFLOP/s"}, {"tensor.gemm_b16_gflops", "GFLOP/s"}, {"tensor.gemm_64_gflops", "GFLOP/s"},
	{"tensor.bgemm_attn_gflops", "GFLOP/s"}, {"tensor.softmax_ns_per_row", "ns"},
	{"nn.conv_fwd_us", "us"}, {"nn.conv_bwd_us", "us"},
	{"nn.attn_fwd_us", "us"}, {"nn.attn_bwd_us", "us"}, {"nn.attn_h1_fwd_us", "us"},
	{"nn.dense_fwd_us", "us"}, {"nn.dense_bwd_us", "us"}, {"nn.xent_us", "us"}, {"nn.sgd_step_us", "us"},
	{"model.train_step_us", "us"}, {"model.clone_us", "us"}, {"model.clone_allocs", "count"},
	{"model.marshal_us", "us"}, {"model.unmarshal_us", "us"}, {"model.widen_us", "us"},
	{"data.generate_ms", "ms"}, {"data.synth_us", "us"}, {"device.trace_ms", "ms"}, {"device.at_ns", "ns"},
	{"fl.select_us", "us"}, {"assign.sample_ns", "ns"}, {"assign.update_joint_ns", "ns"}, {"transform.apply_us", "us"},
	{"aggregate.add_us", "us"}, {"aggregate.tiered_add_us", "us"}, {"aggregate.finalize_us", "us"}, {"aggregate.soft_us", "us"},
	{"codec.encode_mb_s", "MB/s"}, {"codec.decode_mb_s", "MB/s"},
	{"fl.train_local_us", "us"}, {"fl.evaluate_on_us", "us"}, {"fl.checkpoint_ms", "ms"}, {"fl.coord_us_per_update", "us"},
	{"netcoord.train_rtt_us", "us"}, {"netcoord.handshake_us", "us"}, {"netcoord.wire_us_per_update", "us"},
	{"netcoord.wire_b_per_update", "B"}, {"netcoord.predict_rtt_us", "us"},
	{"fedtrans.new_session_ms", "ms"}, {"fedtrans.load_model_us", "us"}, {"fedtrans.predict_ns", "ns"},
	{"fedtrans.batch_row_ns", "ns"}, {"fedtrans.server_row_ns", "ns"},
	{"fedtrans.tcp_frame_p50_us", "us"}, {"fedtrans.tcp_frame_p99_us", "us"},
	{"par.stream_ns_per_task", "ns"}, {"par.taskstream_ns_per_task", "ns"},
	{"proc.cpu_s_per_segment", "s"}, {"proc.cpu_util", "fraction"}, {"proc.peak_rss_mb", "MB"},
	{"proc.gc_cycles_per_segment", "count"}, {"proc.gc_pause_ms_per_segment", "ms"}, {"proc.mallocs_per_op", "count"},
	{"trace.attributed_share", "fraction"}, {"trace.overhead_share", "fraction"},
}

// total0 and steal0 are the host's CPU accounting when the process
// started; the report prints how much of the run was stolen.
var total0, steal0 = jiffies()

// setupReps is how often set-up is repeated; setup_s reports the median.
const setupReps = 3

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	smoke    bool
	scratch  string
}

// runner drives one workload and keeps what the checks need.
type runner struct {
	w       workload
	refs    []any      // first check value seen per sub-seed
	first   []*segment // first segment of each sub-seed, once it has run
	broken  []string   // violated checks
	samples [][]segment
}

func newRunner(w workload) *runner {
	return &runner{w: w, refs: make([]any, w.panel()), first: make([]*segment, w.panel())}
}

// segment runs sub-seed j and applies the repeat-exactly check.
func (r *runner) segment(j int, tr *tracer, parent int) (segment, error) {
	seg, err := r.w.run(j, tr, parent)
	if err != nil {
		return seg, err
	}
	r.verify(j, seg.check)
	if r.first[j] == nil {
		r.first[j] = &seg
	}
	return seg, nil
}

func (r *runner) verify(j int, check any) {
	switch {
	case check == nil:
	case r.refs[j] == nil:
		r.refs[j] = check
	case !reflect.DeepEqual(r.refs[j], check):
		r.broken = append(r.broken, fmt.Sprintf("sub-seed %d: result differs from the first run of the same inputs", j))
	}
}

// setUp does the once-per-run part, then the repeated part reps times,
// and returns once + median(repeated) in seconds. The warm-up segments
// go to the panel members that are not timed, one after the other, so
// their session counts and bytes reach the report at no extra cost; a
// workload whose members are all timed warms up on those.
func (r *runner) setUp(reps int) (float64, error) {
	t0 := time.Now()
	if err := r.w.prepare(); err != nil {
		return 0, err
	}
	once := time.Since(t0).Seconds()
	var repeated []float64
	timed, untimed, warm := r.w.timed(), r.w.panel()-r.w.timed(), 0
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		check, err := r.w.rep()
		if err != nil {
			return 0, err
		}
		r.verify(0, check)
		for n := 0; n < r.w.warmups(); n++ {
			j := warm % timed
			if untimed > 0 {
				j = timed + warm%untimed
			}
			warm++
			if _, err := r.segment(j, nil, 0); err != nil {
				return 0, err
			}
		}
		repeated = append(repeated, time.Since(t0).Seconds())
	}
	return once + median(repeated), nil
}

// measure times segments round-robin over the timed members until each
// has run and the time budget is used.
func (r *runner) measure(seconds float64) error {
	k := r.w.timed()
	r.samples = make([][]segment, k)
	runtime.GC()
	t0 := time.Now()
	for i := 0; i < k || time.Since(t0).Seconds() < seconds; i++ {
		seg, err := r.segment(i%k, nil, 0)
		if err != nil {
			return err
		}
		r.samples[i%k] = append(r.samples[i%k], seg)
	}
	return nil
}

// report folds the timed segments into the end-to-end metrics. A timed
// member contributes its FASTEST segment to the times: this host takes
// one of the two cores away for seconds at a time, a session then runs
// at single-core speed, and a median over a member's few repetitions
// lands on either side of that step from run to run, where the fastest
// repetition does not. Bytes and session counts do not depend on the
// host but swing with the sub-seed, so they are taken over every member
// that ran, timed (median segment) or once in set-up: bytes per
// operation, and the mean of the counts.
func (r *runner) report(setup float64, reps int) (result, []int64) {
	var (
		res             = result{Metrics: map[string]metric{}}
		wall, alloc     float64
		allocOps        int64
		p99             float64 // Σ per-member frame p99 (ns)
		ops             int64
		acc, gm, mb, sm []float64
		latency         []int64
		timed           int
	)
	for _, ss := range r.samples {
		if len(ss) == 0 {
			continue
		}
		var walls, allocs, p99s []float64
		for _, s := range ss {
			walls = append(walls, s.wall.Seconds())
			allocs = append(allocs, float64(s.allocB))
			res.Attempted += s.ops
			res.Failed += s.failed
			if len(s.latency) > 0 {
				slices.Sort(s.latency)
				p99s = append(p99s, float64(percentile(s.latency, 99)))
				latency = append(latency, s.latency...)
			}
		}
		timed += len(ss)
		wall += slices.Min(walls)
		alloc += median(allocs)
		allocOps += ss[0].ops
		if len(p99s) > 0 {
			p99 += slices.Min(p99s)
		}
		ops += ss[0].ops
	}
	for j, seg := range r.first {
		if seg == nil {
			continue
		}
		c := seg.counts
		acc, gm, mb, sm = append(acc, c.accuracy), append(gm, c.gmacs), append(mb, c.networkMB), append(sm, c.simSeconds)
		if j >= len(r.samples) { // ran once, in set-up
			alloc += float64(seg.allocB)
			allocOps += seg.ops
		}
	}
	if a := mean(acc); a < r.w.accuracyFloor() {
		r.broken = append(r.broken, fmt.Sprintf("final_accuracy %.4f below the floor %.4f", a, r.w.accuracyFloor()))
	}
	if len(r.broken) > 0 {
		// A violated check voids the run: none of its operations count.
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0
	res.put(endToEnd, "setup_s", setup, reps)
	res.put(endToEnd, "ops_per_s", float64(ops)/wall, timed)
	res.put(endToEnd, "alloc_b_per_op", alloc/float64(allocOps), len(acc))
	// Where callers wait for single replies (frames), the tail is the
	// frame p99: per segment, the lowest over a member's segments, mean
	// over the members. A training session is one blocking call, so no
	// percentile of calls exists: the one caller waits 1 ÷ ops_per_s per
	// update. A tail over the few timed sessions was tried and refused
	// as too noisy (README, "What differs").
	if len(latency) > 0 {
		res.put(endToEnd, "tail_latency_us", p99/float64(len(r.samples))/1e3, len(latency))
	} else {
		res.put(endToEnd, "tail_latency_us", wall/float64(ops)*1e6, timed)
	}
	res.put(endToEnd, "final_accuracy", mean(acc), len(acc))
	res.put(endToEnd, "train_gmacs", mean(gm), len(gm))
	res.put(endToEnd, "network_mb", mean(mb), len(mb))
	res.put(endToEnd, "sim_wallclock_s", mean(sm), len(sm))
	slices.Sort(latency)
	return res, latency
}

// printReport writes the human-readable part: host, every metric with
// its unit and sample count, latency percentiles, violated checks.
func printReport(out io.Writer, cfg runConfig, specs []metricSpec, res result, latency []int64, broken []string) {
	host, _ := json.Marshal(readHost(cfg.seed))
	fmt.Fprintf(out, "workload %s  host %s\n", cfg.workload, host)
	for _, m := range specs {
		v := res.Metrics[m.name]
		fmt.Fprintf(out, "  %-34s %16.6g %-9s n=%d\n", m.name, v.Value, v.Unit, v.n)
	}
	if n := len(latency); n > 0 {
		fmt.Fprintf(out, "  operation latency over %d timed operations:", n)
		top := highestPercentile(n)
		for _, p := range tailPercentiles {
			if p <= top {
				fmt.Fprintf(out, "  p%g %.1f us", p, float64(percentile(latency, p))/1e3)
			}
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "  operations attempted %d, failed %d\n", res.Attempted, res.Failed)
	if total, steal := jiffies(); total > total0 {
		// Above a few percent the host, not the code, set the timings.
		fmt.Fprintf(out, "  hypervisor steal during the run: %.1f %% of CPU time\n", 100*float64(steal-steal0)/float64(total-total0))
	}
	for _, b := range broken {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", b)
	}
}

// runEndToEnd is one untraced run: set-up, timed segments, report.
func runEndToEnd(cfg runConfig, out io.Writer) (result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.smoke, cfg.scratch)
	if err != nil {
		return result{}, err
	}
	r := newRunner(w)
	reps := setupReps
	if cfg.smoke {
		reps = 1
	}
	setup, err := r.setUp(reps)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	if err := r.measure(cfg.seconds); err != nil {
		return result{}, err
	}
	res, latency := r.report(setup, reps)
	printReport(out, cfg, endToEnd, res, latency, r.broken)
	return res, nil
}

// emit prints the result as the last line of standard output.
func emit(res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", line)
	return err
}
