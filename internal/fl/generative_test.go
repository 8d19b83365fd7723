package fl

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"fedtrans/internal/chaos"
	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/model"
)

// genSetup mirrors smokeSetup with a lazy/materialized switch: the same
// (profile, clients, seeds), synthesized on demand or up front.
func genSetup(t testing.TB, clients int, lazy bool) (*data.Dataset, *device.Trace, model.Spec) {
	t.Helper()
	model.ResetIDs()
	dcfg := data.Config{Profile: "femnist", Clients: clients, Seed: 7}
	tcfg := device.TraceConfig{
		N: clients, MinCapacityMACs: 2_000, MaxCapacityMACs: 200_000, Seed: 3,
	}
	var ds *data.Dataset
	var tr *device.Trace
	if lazy {
		ds = data.GenerateLazy(dcfg)
		tr = device.NewTraceLazy(tcfg)
	} else {
		ds = data.Generate(dcfg)
		tr = device.NewTrace(tcfg)
	}
	return ds, tr, model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes)
}

// genChaosConfig is the kitchen-sink scenario the generative-equality
// golden runs under: chaos + retries + quorum, so
// every stateful subsystem exercises the on-demand client path.
func genChaosConfig() Config {
	cfg := DefaultConfig()
	cfg.Rounds = 10
	cfg.ClientsPerRound = 6
	cfg.EvalEvery = 3
	cfg.ConvergePatience = 0
	cfg.Quorum = 0.5
	cfg.RetryBudget = 2
	cfg.Chaos = chaos.Config{
		Seed: 99, CrashRate: 0.1, CorruptRate: 0.05, StragglerRate: 0.1, StragglerDelay: 20,
	}
	return cfg
}

// TestRuntimeGenerativeMatchesMaterialized is the tentpole golden test
// at the runtime level: a full run over a generative population —
// synchronous and staleness-bounded asynchronous, under chaos
// — must be bit-identical (reflect.DeepEqual on the full
// Result, including per-client accuracies and RNG-driven logs) to the
// same run over the materialized dataset and trace.
func TestRuntimeGenerativeMatchesMaterialized(t *testing.T) {
	for _, mode := range []struct {
		name      string
		staleness int
	}{
		{"sync", 0},
		{"async-staleness2", 2},
	} {
		t.Run(mode.name, func(t *testing.T) {
			run := func(lazy bool) Result {
				ds, tr, spec := genSetup(t, 20, lazy)
				cfg := genChaosConfig()
				cfg.MaxStaleness = mode.staleness
				return New(cfg, ds, tr, spec).Run()
			}
			mat := run(false)
			lazy := run(true)
			if !reflect.DeepEqual(mat, lazy) {
				t.Fatalf("generative run diverged from materialized:\nmat:  %+v\nlazy: %+v", mat, lazy)
			}
		})
	}
}

// TestCheckpointResumeGenerativePopulation is the FTCP kill/resume
// golden test on a generative population: checkpoints written mid-run
// restore into a fresh generative runtime — including one with a larger
// same-shape population (late joiners at zero utility) — and reproduce
// the uninterrupted run bit for bit. A smaller population than the
// checkpoint covers is rejected with ErrGeometryMismatch.
func TestCheckpointResumeGenerativePopulation(t *testing.T) {
	mk := func(clients int) *Runtime {
		ds, tr, spec := genSetup(t, clients, true)
		cfg := genChaosConfig()
		cfg.MaxStaleness = 2 // async: in-flight dispatches ride the checkpoint
		return New(cfg, ds, tr, spec)
	}
	expected := mk(20).Run()

	_, blobs := runWithCheckpoints(t, func() *Runtime { return mk(20) }, 1)
	for round := 1; round < genChaosConfig().Rounds; round++ {
		blob := blobs[round]
		if blob == nil {
			continue
		}
		resumed, err := resume(mk(20), blob)
		if err != nil {
			t.Fatalf("resume at round %d: %v", round, err)
		}
		if !reflect.DeepEqual(expected, resumed) {
			t.Fatalf("generative kill/resume at round %d diverged", round)
		}
	}

	// Pick one mid-run blob for the geometry-gate variants.
	blob := blobs[5]
	if blob == nil {
		t.Fatal("no checkpoint at round 5")
	}

	// Larger same-shape generative population: accepted (late joiners
	// start at zero utility) and must run to completion deterministically.
	_, growBlobs := runWithCheckpoints(t, func() *Runtime { return mk(20) }, 5)
	growBlob := growBlobs[5]
	if growBlob == nil {
		t.Fatal("no checkpoint at round 5")
	}
	big := mk(200)
	if err := big.Restore(growBlob); err != nil {
		t.Fatalf("resume into larger population: %v", err)
	}
	a := big.Run()
	big2 := mk(200)
	if err := big2.Restore(growBlob); err != nil {
		t.Fatal(err)
	}
	if b := big2.Run(); !reflect.DeepEqual(a, b) {
		t.Fatal("larger-population resume is nondeterministic")
	}

	// Smaller population than the checkpoint covers: geometry mismatch.
	if err := mk(10).Restore(blob); !errors.Is(err, ErrGeometryMismatch) {
		t.Fatalf("smaller-population resume err = %v, want ErrGeometryMismatch", err)
	}
}

// sparseRuntime is an asynchronous run over a generative population of
// which at most Rounds × AsyncConcurrency clients ever train, evaluated
// on a small panel so that nothing in it visits every client.
func sparseRuntime(t testing.TB, population int) *Runtime {
	ds, tr, spec := genSetup(t, population, true)
	cfg := genChaosConfig()
	cfg.Rounds = 6
	cfg.MaxStaleness = 2
	cfg.EvalSample = 8
	return New(cfg, ds, tr, spec)
}

// sparseCheckpoint is sparseRuntime's checkpoint after four rounds, with
// dispatches in flight.
func sparseCheckpoint(t testing.TB, population int) []byte {
	t.Helper()
	_, blobs := runWithCheckpoints(t, func() *Runtime { return sparseRuntime(t, population) }, 4)
	if blobs[4] == nil {
		t.Fatal("no checkpoint at round 4")
	}
	return blobs[4]
}

// TestCheckpointSizeIndependentOfPopulation: per-client state is stored
// for the clients that trained, so a hundredfold population leaves the
// checkpoint within 10 % of its size.
func TestCheckpointSizeIndependentOfPopulation(t *testing.T) {
	small, big := sparseCheckpoint(t, 1_000), sparseCheckpoint(t, 100_000)
	t.Logf("checkpoint %d B at population 10³, %d B at 10⁵", len(small), len(big))
	if 10*len(big) > 11*len(small) {
		t.Fatalf("checkpoint grew from %d B to %d B with the population", len(small), len(big))
	}
}

// TestRestoreHeapIndependentOfPopulation: restoring allocates nothing per
// client that never trained — the heap objects a restored runtime holds
// on to do not grow with the population. At GOMAXPROCS 1 the streams
// start no worker, so no goroutine trains a restored dispatch during a
// measurement. A stream worker an earlier test left behind may still
// hold that test's runtime until it is scheduled; it runs while the
// first of two collections waits, and the second frees what it held.
func TestRestoreHeapIndependentOfPopulation(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	collect := func(m *runtime.MemStats) {
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(m)
	}
	objects := func(population int) int64 {
		blob := sparseCheckpoint(t, population)
		rt := sparseRuntime(t, population)
		var before, after runtime.MemStats
		collect(&before)
		if err := rt.Restore(blob); err != nil {
			t.Fatal(err)
		}
		collect(&after)
		rt.drain()
		return int64(after.HeapObjects) - int64(before.HeapObjects)
	}
	small, big := objects(1_000), objects(100_000)
	t.Logf("restore holds %d heap objects at population 10³, %d at 10⁵", small, big)
	if big > small+small/10+64 {
		t.Fatalf("restore held %d heap objects at population 10⁵, %d at 10³", big, small)
	}
}
