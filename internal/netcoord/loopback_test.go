package netcoord

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"fedtrans/internal/chaos"
	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/fl"
	"fedtrans/internal/model"
)

const loopClients = 12

func loopDataCfg() data.Config {
	return data.Config{Profile: "femnist", Clients: loopClients, Heterogeneity: 1, Seed: 5}
}

// loopRun executes one full FL run, either in-process or through a
// loopback hub with a pool of agent connections, and returns the
// Result. Both paths build identical runtimes from a reset model-ID
// scope, so any divergence is the wire's fault.
func loopRun(t *testing.T, mutate func(*fl.Config), networked bool, wire chaos.WireConfig) (fl.Result, []error) {
	t.Helper()
	model.ResetIDs()
	dcfg := loopDataCfg()
	ds := data.Generate(dcfg)
	spec := model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes)
	base := spec.Build(rand.New(rand.NewSource(0))).MACsPerSample()
	tr := device.NewTrace(device.TraceConfig{
		N: loopClients, MinCapacityMACs: base, MaxCapacityMACs: base * 32, Seed: 101,
	})
	cfg := fl.DefaultConfig()
	cfg.Rounds = 3
	cfg.ClientsPerRound = 6
	cfg.Local.Steps = 2
	if mutate != nil {
		mutate(&cfg)
	}
	if !networked {
		return fl.New(cfg, ds, tr, spec).Run(), nil
	}

	hub, err := NewHub("127.0.0.1:0", RunConfig{Data: dcfg, Local: cfg.Local})
	if err != nil {
		t.Fatal(err)
	}
	agentErr := make(chan error, 1)
	go func() {
		agentErr <- RunAgents(AgentConfig{Addr: hub.Addr(), Workers: 3, WireChaos: wire})
	}()
	cfg.Trainer = hub
	res := fl.New(cfg, ds, tr, spec).Run()
	wireErrs := hub.WireErrors()
	hub.Close()
	if err := <-agentErr; err != nil {
		t.Fatalf("agents exited with: %v", err)
	}
	return res, wireErrs
}

// TestLoopbackByteIdentical is the golden test of the networked
// coordinator: a run whose every local-training attempt travels over
// TCP loopback must produce exactly the in-process Result — training is
// pure in (weights, shard, seed) and the FTW1 codec is lossless, so
// there is nothing the wire is allowed to change.
func TestLoopbackByteIdentical(t *testing.T) {
	want, _ := loopRun(t, nil, false, chaos.WireConfig{})
	got, wireErrs := loopRun(t, nil, true, chaos.WireConfig{})
	if len(wireErrs) != 0 {
		t.Fatalf("clean loopback recorded wire errors: %v", wireErrs)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("networked run diverged from in-process run\nin-process: MeanAcc=%v Costs=%+v\nnetworked:  MeanAcc=%v Costs=%+v",
			want.MeanAcc, want.Costs, got.MeanAcc, got.Costs)
	}
}

// TestLoopbackTrainingChaos pins chaos parity across the wire: injected
// training faults (crashes, NaN uploads) are drawn server-side from the
// same (round, client, attempt) hash either way, so a faulted networked
// run must still equal the identically-faulted in-process run.
func TestLoopbackTrainingChaos(t *testing.T) {
	faulty := func(cfg *fl.Config) {
		cfg.Chaos = chaos.Config{Seed: 7, CrashRate: 0.15, NonFiniteRate: 0.1}
		cfg.RetryBudget = 2
	}
	want, _ := loopRun(t, faulty, false, chaos.WireConfig{})
	got, _ := loopRun(t, faulty, true, chaos.WireConfig{})
	if !reflect.DeepEqual(want, got) {
		t.Fatal("chaos-faulted networked run diverged from in-process run")
	}
}

// TestLoopbackWireFaults drives the transport fault injector: uploads
// are deterministically truncated, corrupted, and dropped, the
// coordinator surfaces each as its typed error, and the retry machinery
// re-trains the attempt through a redialed connection. Two identical
// faulted runs must agree bit-for-bit — wire faults are keyed on the
// attempt's training seed, not on connection identity, so the fault
// schedule is as reproducible as the training itself.
func TestLoopbackWireFaults(t *testing.T) {
	wire := chaos.WireConfig{Seed: 9, TruncateRate: 0.12, CorruptRate: 0.12, DropRate: 0.12}
	faulty := func(cfg *fl.Config) { cfg.RetryBudget = 3 }

	resA, errsA := loopRun(t, faulty, true, wire)
	if len(errsA) == 0 {
		t.Fatal("no wire faults recorded; injector never fired")
	}
	typed := 0
	for _, err := range errsA {
		switch {
		case errors.Is(err, ErrFrameCRC),
			errors.Is(err, ErrTruncatedFrame),
			errors.Is(err, ErrAgentGone):
			typed++
		default:
			t.Errorf("wire fault surfaced untyped: %v", err)
		}
	}
	if typed != len(errsA) {
		t.Fatalf("%d of %d wire errors missing a typed cause", len(errsA)-typed, len(errsA))
	}

	resB, errsB := loopRun(t, faulty, true, wire)
	if !reflect.DeepEqual(resA, resB) {
		t.Fatal("identical wire-faulted runs diverged")
	}
	if len(errsA) != len(errsB) {
		t.Fatalf("fault schedules diverged: %d vs %d wire errors", len(errsA), len(errsB))
	}
}
