package fl

import (
	"reflect"
	"runtime"
	"testing"

	"fedtrans/internal/chaos"
)

// The tests in this file are the golden expectations of the deleted
// internal/async simulator, re-targeted at the round engine's
// asynchronous policy (Config.MaxStaleness ≥ 1) running through
// par.TaskStream, StreamingFedAvg, and the fl runtime.

// asyncConfig is the baseline asynchronous configuration: staleness
// bound 2, default 2×ClientsPerRound concurrency.
func asyncConfig() Config {
	cfg := DefaultConfig()
	cfg.Rounds = 40
	cfg.ClientsPerRound = 5
	cfg.EvalEvery = 10
	cfg.ConvergePatience = 0
	cfg.MaxStaleness = 2
	return cfg
}

func TestAsyncRoundLoopLearns(t *testing.T) {
	ds, tr, spec := smokeSetup(t, 20)
	cfg := asyncConfig()
	cfg.Rounds = 60
	rt := New(cfg, ds, tr, spec)
	res := rt.Run()
	t.Logf("async acc=%.3f staleness=%.2f rounds=%d", res.MeanAcc, res.MeanStaleness, res.RoundsRun)
	if res.MeanAcc < 2.0/float64(ds.Classes) {
		t.Errorf("async training failed to learn: %.3f", res.MeanAcc)
	}
	if res.RoundsRun != cfg.Rounds {
		t.Errorf("rounds run = %d, want %d", res.RoundsRun, cfg.Rounds)
	}
	if res.MeanStaleness < 0 || res.MeanStaleness > float64(cfg.MaxStaleness) {
		t.Errorf("mean staleness %.2f outside [0, %d]", res.MeanStaleness, cfg.MaxStaleness)
	}
}

// TestAsyncStalenessObservedAndBounded: with concurrency far above the
// per-round commit budget, most dispatches must wait out extra server
// rounds before folding — staleness must be observed — yet no update
// may ever exceed the configured bound.
func TestAsyncStalenessObservedAndBounded(t *testing.T) {
	ds, tr, spec := smokeSetup(t, 20)
	cfg := asyncConfig()
	cfg.ClientsPerRound = 3
	cfg.MaxStaleness = 3
	cfg.AsyncConcurrency = 15
	rt := New(cfg, ds, tr, spec)
	res := rt.Run()
	if res.MeanStaleness <= 0 {
		t.Errorf("mean staleness = %v; concurrency 15 over commit budget 3 must observe stale updates", res.MeanStaleness)
	}
	if res.MeanStaleness > float64(cfg.MaxStaleness) {
		t.Errorf("mean staleness %.2f exceeds the bound %d", res.MeanStaleness, cfg.MaxStaleness)
	}
}

// TestAsyncWallClockAdvances: the virtual clock must move forward and
// every round's charge must be non-negative (an update that arrived
// while the server was busy with earlier rounds costs nothing extra).
func TestAsyncWallClockAdvances(t *testing.T) {
	ds, tr, spec := smokeSetup(t, 20)
	cfg := asyncConfig()
	cfg.Rounds = 10
	rt := New(cfg, ds, tr, spec)
	res := rt.Run()
	wall := 0.0
	for i, rtime := range res.RoundTimes() {
		if rtime < 0 {
			t.Fatalf("round %d charged negative time %v", i, rtime)
		}
		wall += rtime
	}
	if wall <= 0 {
		t.Error("virtual wall clock did not advance")
	}
}

// TestAsyncMitigatesStragglersInWallClock is the time-to-accuracy shape
// test behind the refactor (the paper's related-work motivation): under
// a chaos-injected straggler population, the asynchronous loop overlaps
// straggler delays across rounds instead of serializing them, so at an
// equal committed-update budget its wall clock must beat the
// synchronous schedule, whose every round waits for its slowest
// participant.
func TestAsyncMitigatesStragglersInWallClock(t *testing.T) {
	mkCfg := func() Config {
		cfg := DefaultConfig()
		cfg.Rounds = 16
		cfg.ClientsPerRound = 8
		cfg.EvalEvery = 8
		cfg.ConvergePatience = 0
		cfg.Chaos = chaos.Config{Seed: 42, StragglerRate: 0.3, StragglerDelay: 150}
		return cfg
	}
	wall := func(res Result) float64 {
		w := 0.0
		for _, rt := range res.RoundTimes() {
			w += rt
		}
		return w
	}

	ds, tr, spec := smokeSetup(t, 24)
	syncRes := New(mkCfg(), ds, tr, spec).Run()

	ds2, tr2, spec2 := smokeSetup(t, 24)
	acfg := mkCfg()
	acfg.MaxStaleness = 2
	asyncRes := New(acfg, ds2, tr2, spec2).Run()

	syncWall, asyncWall := wall(syncRes), wall(asyncRes)
	syncUpdates, asyncUpdates := 0, 0
	for _, l := range syncRes.Log {
		syncUpdates += l.Updates
	}
	for _, l := range asyncRes.Log {
		asyncUpdates += l.Updates
	}
	t.Logf("async wall=%.1fs sync wall=%.1fs (updates async=%d sync=%d)",
		asyncWall, syncWall, asyncUpdates, syncUpdates)
	if asyncUpdates < syncUpdates {
		t.Errorf("async committed fewer updates (%d) than sync (%d); wall-clock comparison is unfair",
			asyncUpdates, syncUpdates)
	}
	if asyncWall >= syncWall {
		t.Errorf("async (%.1fs) should finish before sync (%.1fs) at equal update budget",
			asyncWall, syncWall)
	}
}

// asyncChaosScenario is the asynchronous kitchen-sink configuration:
// staleness-bounded rounds with chaos faults, retries, quorum and the
// server optimizer — every subsystem the async checkpoint must carry
// through kill/resume.
func asyncChaosScenario(t testing.TB) func() *Runtime {
	return func() *Runtime {
		ds, tr, spec := smokeSetup(t, 20)
		cfg := ckptConfig()
		cfg.Rounds = 12
		cfg.MaxStaleness = 2
		cfg.ServerYogi = true
		cfg.Quorum = 0.4
		cfg.RetryBudget = 2
		cfg.Chaos = chaos.Config{
			Seed:           99,
			CrashRate:      0.10,
			CorruptRate:    0.05,
			NonFiniteRate:  0.05,
			StragglerRate:  0.15,
			StragglerDelay: 30,
		}
		return New(cfg, ds, tr, spec)
	}
}

// TestAsyncChaosStragglersDoNotBlockCommit: under the chaos straggler
// profile, rounds must keep committing (the staleness bound retires
// stragglers instead of waiting on them), deterministically.
func TestAsyncChaosStragglersDoNotBlockCommit(t *testing.T) {
	mk := asyncChaosScenario(t)
	res := mk().Run()
	committed := 0
	for _, l := range res.Log {
		if l.Committed {
			committed++
		}
	}
	t.Logf("committed %d/%d rounds, staleness=%.2f, failures=%d, retries=%d",
		committed, res.RoundsRun, res.MeanStaleness, res.Failures, res.Retries)
	if committed < res.RoundsRun/2 {
		t.Errorf("only %d of %d chaotic async rounds committed", committed, res.RoundsRun)
	}
	// Deterministic replay of the whole chaotic schedule.
	again := mk().Run()
	if !reflect.DeepEqual(res, again) {
		t.Error("chaotic async run is not deterministic")
	}
}

// TestAsyncCheckpointResumeGolden is the mid-round in-flight kill/resume
// golden test (the PR 6 follow-on): checkpoints taken between
// asynchronous rounds carry clients that are still training — their
// dispatch-time weight snapshots ride in the blob and resume retrains
// them deterministically — so a run resumed at any boundary must equal
// the uninterrupted run bit for bit, serial and parallel.
func TestAsyncCheckpointResumeGolden(t *testing.T) {
	for _, mode := range windowModes {
		t.Run(mode.name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(mode.procs)
			defer runtime.GOMAXPROCS(prev)
			mk := asyncChaosScenario(t)
			expected := mk().Run()

			withCkpt, blobs := runWithCheckpoints(t, mk, 1)
			if !reflect.DeepEqual(expected, withCkpt) {
				t.Fatal("enabling checkpoints changed the async run result")
			}
			sawInflight := false
			for round, blob := range blobs {
				ck, err := DecodeCheckpoint(blob)
				if err != nil {
					t.Fatalf("decode checkpoint at round %d: %v", round, err)
				}
				if len(ck.Inflight) > 0 {
					sawInflight = true
				}
				resumed, err := resume(mk(), blob)
				if err != nil {
					t.Fatalf("resume at round %d: %v", round, err)
				}
				if !reflect.DeepEqual(expected, resumed) {
					t.Fatalf("kill/resume at round boundary %d diverged from uninterrupted run", round)
				}
			}
			if !sawInflight {
				t.Error("no checkpoint captured in-flight async state; the mid-round path went untested")
			}
		})
	}
}
