// Command fedtrans runs one FedTrans training session from command-line
// flags and prints the resulting model suite and accuracy/cost summary.
//
// Example:
//
//	go run ./cmd/fedtrans -profile cifar10 -clients 40 -rounds 100
//
// The session can also be split across processes: -serve starts the
// networked coordinator and -agent joins a coordinator as a client-agent
// pool. The summary printed by a -serve run is byte-identical to the
// in-process run with the same flags:
//
//	go run ./cmd/fedtrans -serve 127.0.0.1:39217 &
//	go run ./cmd/fedtrans -agent 127.0.0.1:39217 -agent-workers 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"fedtrans"
)

// check exits on err: with code 2, the flag package's bad-usage code,
// when an option is out of range, and 1 otherwise.
func check(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, err)
	if errors.Is(err, fedtrans.ErrInvalidOptions) {
		os.Exit(2)
	}
	os.Exit(1)
}

func main() {
	opts := fedtrans.DefaultOptions()
	flag.StringVar(&opts.Profile, "profile", opts.Profile,
		"dataset profile: femnist|cifar10|speech|openimage|vit|scale")
	flag.IntVar(&opts.Clients, "clients", opts.Clients, "number of federated clients")
	flag.IntVar(&opts.Population, "population", opts.Population,
		"generative population size: overrides -clients and synthesizes client state on demand, O(active) server state")
	flag.IntVar(&opts.Rounds, "rounds", opts.Rounds, "training round budget")
	flag.IntVar(&opts.ClientsPerRound, "participants", opts.ClientsPerRound, "clients per round")
	flag.Float64Var(&opts.Heterogeneity, "h", opts.Heterogeneity,
		"Dirichlet heterogeneity (lower = more heterogeneous)")
	flag.Float64Var(&opts.Alpha, "alpha", opts.Alpha, "cell activeness threshold")
	flag.Float64Var(&opts.Beta, "beta", opts.Beta, "DoC transformation threshold")
	flag.IntVar(&opts.Gamma, "gamma", opts.Gamma, "DoC slope window")
	flag.IntVar(&opts.Delta, "delta", opts.Delta, "DoC slope step")
	flag.Float64Var(&opts.WidenFactor, "widen", opts.WidenFactor, "widening degree")
	flag.IntVar(&opts.DeepenCells, "deepen", opts.DeepenCells, "cells inserted per deepen")
	flag.Float64Var(&opts.CapacitySpread, "spread", opts.CapacitySpread, "device capacity max/min ratio")
	flag.BoolVar(&opts.AllowL2S, "l2s", opts.AllowL2S, "allow large-to-small weight sharing")
	flag.Int64Var(&opts.Seed, "seed", opts.Seed, "random seed")
	flag.IntVar(&opts.MaxStaleness, "max-staleness", opts.MaxStaleness,
		"enable staleness-bounded async rounds; updates fold at most this many rounds late (0 = synchronous)")
	flag.IntVar(&opts.AsyncConcurrency, "async-concurrency", opts.AsyncConcurrency,
		"clients kept training at once in async mode (default 2x participants)")
	flag.StringVar(&opts.CheckpointPath, "checkpoint", opts.CheckpointPath,
		"write a resumable checkpoint to this file every -checkpoint-every rounds")
	flag.IntVar(&opts.CheckpointEvery, "checkpoint-every", opts.CheckpointEvery,
		"checkpoint cadence in rounds")
	flag.IntVar(&opts.EvalSample, "eval-sample", opts.EvalSample,
		"evaluate on a fixed deterministic panel of this many clients instead of the full population (0 = everyone)")
	flag.IntVar(&opts.AttentionHeads, "heads", opts.AttentionHeads,
		"attention head count for the vit profile's initial model (0 or 1 = single-head; must divide the model dimension)")
	flag.StringVar(&opts.ServeAddr, "serve", opts.ServeAddr,
		"run as networked coordinator on this address; training waits for -agent processes and stays byte-identical to the in-process run")
	agentAddr := flag.String("agent", "",
		"run as a client-agent pool against the coordinator at this address (no session is created)")
	agentWorkers := flag.Int("agent-workers", 1, "concurrent connections an -agent process opens")
	resumePath := flag.String("resume", "",
		"resume from a checkpoint file written by a previous -checkpoint run")
	exportPath := flag.String("export", "", "write the largest trained model to this file")
	flag.Parse()

	if *agentAddr != "" {
		fmt.Fprintf(os.Stderr, "agent: serving coordinator %s with %d worker(s)\n", *agentAddr, *agentWorkers)
		check(fedtrans.RunAgent(*agentAddr, *agentWorkers))
		return
	}

	session, err := fedtrans.NewSession(opts)
	check(err)
	if opts.ServeAddr != "" {
		// Notice goes to stderr so stdout stays byte-comparable with the
		// in-process run.
		fmt.Fprintf(os.Stderr, "coordinator: listening on %s\n", session.CoordinatorAddr())
	}
	clients := opts.Clients
	if opts.Population > 0 {
		clients = opts.Population
	}
	fmt.Printf("profile=%s clients=%d rounds=%d participants=%d disparity=%.1fx\n",
		opts.Profile, clients, opts.Rounds, opts.ClientsPerRound, session.DeviceDisparity())
	var summary fedtrans.Summary
	if *resumePath != "" {
		blob, err := os.ReadFile(*resumePath)
		check(err)
		// Notice goes to stderr so stdout stays byte-comparable with the
		// uninterrupted run.
		fmt.Fprintf(os.Stderr, "resuming from %s (%d bytes)\n", *resumePath, len(blob))
		summary, err = session.Resume(blob)
		check(err)
	} else {
		summary = session.Run()
	}
	check(session.CheckpointError())
	fmt.Printf("\nmean accuracy : %.2f%%\n", summary.MeanAccuracy*100)
	fmt.Printf("accuracy IQR  : %.2f%%\n", summary.AccuracyIQR*100)
	fmt.Printf("train cost    : %.4g MACs\n", summary.TrainMACs)
	fmt.Printf("network       : %.2f MB\n", float64(summary.NetworkBytes)/1e6)
	fmt.Printf("storage       : %.3f MB\n", float64(summary.StorageBytes)/1e6)
	fmt.Printf("rounds        : %d\n", summary.Rounds)
	fmt.Printf("wall clock    : %.1f s\n", summary.WallClock)
	if summary.MeanStaleness > 0 {
		fmt.Printf("staleness     : %.2f rounds (mean)\n", summary.MeanStaleness)
	}
	fmt.Printf("\nmodel suite (%d):\n", len(summary.Models))
	for i, m := range summary.Models {
		fmt.Printf("  M%-2d %-52s %10.0f MACs %8d params\n", i, m.Arch, m.MACs, m.Params)
	}

	if *exportPath != "" {
		blob, err := session.ExportModel(len(summary.Models) - 1)
		check(err)
		check(os.WriteFile(*exportPath, blob, 0o644))
		fmt.Printf("\nexported largest model to %s (%d bytes)\n", *exportPath, len(blob))
	}
}
