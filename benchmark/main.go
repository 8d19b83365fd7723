// Command benchmark is the repository's benchmark: five workloads over
// the public fedtrans API, measured end to end, plus a traced run that
// attributes the time to layers. See README.md in this directory.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		cfg      runConfig
		trace    = flag.Int("trace", 0, "1: traced run (spans + layer replay, per-layer metrics); 0: end-to-end metrics")
		traceOut = flag.String("trace-out", filepath.Join(".bench_build", "traces"), "directory for trace-<workload>.json")
		aa       = flag.Bool("aa", false, "run two interleaved sets of runs of this binary per workload and compare their medians with the bounds")
		spread   = flag.Bool("spread", false, "run every workload on -runs seeds and compare each metric's quartile spread with a third of its bound")
		runs     = flag.Int("runs", 10, "runs per set with -aa, seeds with -spread; the driver compares medians of ten")
	)
	flag.StringVar(&cfg.workload, "workload", "", "one of train_conv, train_attn, round_scale, split_async, serve_tcp (with -aa/-spread: default all)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the workload's inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 18, "time budget of the timed part")
	flag.BoolVar(&cfg.smoke, "smoke", false, "one tiny segment of the workload and no time budget: exercises every check in seconds")
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	if cfg.smoke {
		cfg.seconds = 0 // the one-member panel runs once and the timed loop stops
	}
	if *aa || *spread {
		if *runs < 2 {
			fail(fmt.Errorf("-runs %d: quartiles and medians need at least 2 runs", *runs))
		}
		if err := compareRuns(cfg, *aa, *runs); err != nil {
			fail(err)
		}
		return
	}

	// Checkpoints and other scratch files stay inside the checkout.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fail(err)
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fail(err)
	}
	cfg.scratch = scratch
	var res result
	if *trace != 0 {
		res, err = runTraced(cfg, *traceOut, os.Stdout)
	} else {
		res, err = runEndToEnd(cfg, os.Stdout)
	}
	os.RemoveAll(scratch)
	if err == nil {
		err = emit(res)
	}
	if err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
