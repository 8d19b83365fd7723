package fl

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"fedtrans/internal/chaos"
	"fedtrans/internal/codec"
	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/model"
	"fedtrans/internal/tensor"
	"fedtrans/internal/wire"
)

// resume restores a checkpoint into rt and runs it to completion, the
// way Session.Resume does.
func resume(rt *Runtime, b []byte) (Result, error) {
	if err := rt.Restore(b); err != nil {
		return Result{}, err
	}
	return rt.Run(), nil
}

// ckptConfig is the kitchen-sink deterministic configuration the
// checkpoint golden tests run under: transformation on, so a resumed run
// must reproduce every stateful subsystem.
func ckptConfig() Config {
	cfg := DefaultConfig()
	cfg.Rounds = 10
	cfg.ClientsPerRound = 6
	cfg.EvalEvery = 3
	cfg.ConvergePatience = 0
	cfg.Transform.Gamma = 3
	cfg.Transform.Delta = 3
	cfg.Transform.Beta = 0.05
	return cfg
}

// windowModes are the GOMAXPROCS settings the golden tests run at. The
// stream window is max(16, 8·GOMAXPROCS): the smallest window, serial,
// and a window far wider than a round, on more workers than clients.
var windowModes = []struct {
	name  string
	procs int
}{
	{"serial-window16", 1},
	{"parallel-window256", 32},
}

// runWithCheckpoints executes cfg once, collecting every checkpoint
// blob, and fails the test on any background encode error.
func runWithCheckpoints(t testing.TB, mk func() *Runtime, every int) (Result, map[int][]byte) {
	t.Helper()
	blobs := make(map[int][]byte)
	var mu sync.Mutex
	rt := mk()
	rt.cfg.CheckpointEvery = every
	rt.cfg.CheckpointSink = func(round int, blob []byte) {
		mu.Lock()
		blobs[round] = blob
		mu.Unlock()
	}
	res := rt.Run()
	if err := rt.CheckpointErr(); err != nil {
		t.Fatalf("checkpoint encode failed: %v", err)
	}
	return res, blobs
}

// TestCheckpointResumeGoldenEveryBoundary is the kill/resume golden
// test: a checkpoint is written after every round, the run is "killed"
// at each boundary in turn, and a fresh runtime resumed from the blob
// must produce a Result reflect.DeepEqual (bit-for-bit: accuracies,
// costs, rng-driven logs, everything) to the uninterrupted run — under
// both serial execution and the parallel streaming pipeline.
func TestCheckpointResumeGoldenEveryBoundary(t *testing.T) {
	for _, mode := range windowModes {
		t.Run(mode.name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(mode.procs)
			defer runtime.GOMAXPROCS(prev)
			mk := func() *Runtime {
				ds, tr, spec := smokeSetup(t, 16)
				return New(ckptConfig(), ds, tr, spec)
			}
			expected := mk().Run()

			withCkpt, blobs := runWithCheckpoints(t, mk, 1)
			if !reflect.DeepEqual(expected, withCkpt) {
				t.Fatal("enabling checkpoints changed the run result")
			}
			if want := ckptConfig().Rounds - 1; len(blobs) != want {
				t.Fatalf("collected %d checkpoints, want %d", len(blobs), want)
			}
			for round := 1; round < ckptConfig().Rounds; round++ {
				resumed, err := resume(mk(), blobs[round])
				if err != nil {
					t.Fatalf("resume at round %d: %v", round, err)
				}
				if !reflect.DeepEqual(expected, resumed) {
					t.Fatalf("kill/resume at round boundary %d diverged from uninterrupted run", round)
				}
			}
		})
	}
}

// TestResumeAtLastRoundEvaluates resumes a checkpoint into a runtime
// whose last round is the checkpoint's: Run runs no round, so it must
// evaluate the restored state itself, and its Result must equal that of
// an uninterrupted run that stops at that round.
func TestResumeAtLastRoundEvaluates(t *testing.T) {
	// Round stop-1 is an evaluation round (EvalEvery 3) of the longer run
	// too, so both logs evaluate it.
	const stop = 6
	mk := func(rounds int) *Runtime {
		ds, tr, spec := smokeSetup(t, 16)
		cfg := ckptConfig()
		cfg.Rounds = rounds
		return New(cfg, ds, tr, spec)
	}
	_, blobs := runWithCheckpoints(t, func() *Runtime { return mk(ckptConfig().Rounds) }, 1)
	want := mk(stop).Run()
	got, err := resume(mk(stop), blobs[stop])
	if err != nil {
		t.Fatal(err)
	}
	if got.RoundsRun != stop || len(got.ClientAcc) == 0 {
		t.Fatalf("resumed at its last round: %d rounds run, %d client accuracies", got.RoundsRun, len(got.ClientAcc))
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("a run resumed at its last round diverges from one that stopped there: MeanAcc %v, want %v", got.MeanAcc, want.MeanAcc)
	}
}

// chaosScenario builds the full-stack fault-tolerance configuration:
// chaos faults with retries, stragglers, quorum commits and the server
// optimizer — every piece of state a checkpoint must carry.
func chaosScenario(t *testing.T) func() *Runtime {
	return func() *Runtime {
		ds, tr, spec := smokeSetup(t, 20)
		cfg := ckptConfig()
		cfg.Rounds = 12
		cfg.ServerYogi = true
		cfg.Quorum = 0.5
		cfg.RetryBudget = 2
		cfg.Chaos = chaos.Config{
			Seed:           99,
			CrashRate:      0.15,
			CorruptRate:    0.10,
			NonFiniteRate:  0.05,
			StragglerRate:  0.15,
			StragglerDelay: 30,
		}
		return New(cfg, ds, tr, spec)
	}
}

// TestChaosQuorumCommitsUnderFailures: with ~30% injected faults plus
// stragglers, retried attempts must keep rounds committing via
// quorum, and the whole chaotic run must be deterministic for a fixed
// chaos seed — including serial vs parallel execution.
func TestChaosQuorumCommitsUnderFailures(t *testing.T) {
	mk := chaosScenario(t)
	res := mk().Run()

	if res.Retries == 0 {
		t.Error("chaos injected no retries")
	}
	if res.Overhead.DoCUpdates == 0 {
		t.Fatal("no round ever committed under 30% chaos with retries+quorum")
	}
	committed := 0
	for _, l := range res.Log {
		if l.Committed {
			committed++
			if l.UpdatesPerModel == nil {
				t.Errorf("round %d committed without per-model update counts", l.Round)
			}
		} else if l.UpdatesPerModel != nil {
			t.Errorf("round %d aborted but logged update counts", l.Round)
		}
	}
	if committed < res.RoundsRun*7/10 {
		t.Errorf("only %d/%d rounds committed; quorum+retries should carry most rounds",
			committed, res.RoundsRun)
	}
	if int64(committed) != res.Overhead.DoCUpdates {
		t.Errorf("DoC observed %d rounds, %d committed", res.Overhead.DoCUpdates, committed)
	}
	if res.AbortedRounds != res.RoundsRun-committed {
		t.Errorf("AbortedRounds %d != %d uncommitted rounds", res.AbortedRounds, res.RoundsRun-committed)
	}

	if again := mk().Run(); !reflect.DeepEqual(res, again) {
		t.Fatal("chaotic run is not deterministic for a fixed chaos seed")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	if serial := mk().Run(); !reflect.DeepEqual(res, serial) {
		t.Fatal("chaotic run differs between serial and parallel execution")
	}
}

// TestChaosAbortLeavesWeightsUntouched: when every attempt crashes and
// quorum can never be met, all rounds abort and the suite must be
// byte-identical to a run that never trained at all.
func TestChaosAbortLeavesWeightsUntouched(t *testing.T) {
	mk := func(rounds int) *Runtime {
		ds, tr, spec := smokeSetup(t, 12)
		cfg := DefaultConfig()
		cfg.Rounds = rounds
		cfg.ClientsPerRound = 4
		cfg.EvalEvery = 2
		cfg.ConvergePatience = 0
		cfg.Quorum = 0.75
		cfg.Chaos = chaos.Config{Seed: 7, CrashRate: 1}
		return New(cfg, ds, tr, spec)
	}
	res := mk(6).Run()
	if res.AbortedRounds != 6 {
		t.Fatalf("AbortedRounds = %d, want 6 (every attempt crashes)", res.AbortedRounds)
	}
	if res.Overhead.DoCUpdates != 0 || res.Overhead.Transforms != 0 {
		t.Errorf("aborted rounds leaked convergence evidence: %+v", res.Overhead)
	}
	if res.Failures == 0 {
		t.Error("no failures recorded despite CrashRate 1")
	}
	untrained := mk(0).Run()
	if res.MeanAcc != untrained.MeanAcc {
		t.Errorf("aborted rounds changed weights: acc %.6f vs untrained %.6f",
			res.MeanAcc, untrained.MeanAcc)
	}
}

// TestCheckpointResumeChaosScenario: kill/resume determinism with every
// stateful subsystem engaged at once — chaos retries, quorum aborts and
// Yogi moments must all round-trip through the checkpoint.
func TestCheckpointResumeChaosScenario(t *testing.T) {
	mk := chaosScenario(t)
	expected := mk().Run()

	withCkpt, blobs := runWithCheckpoints(t, mk, 4)
	if !reflect.DeepEqual(expected, withCkpt) {
		t.Fatal("enabling checkpoints changed the chaotic run result")
	}
	for _, round := range []int{4, 8} {
		blob := blobs[round]
		if blob == nil {
			t.Fatalf("no checkpoint at round %d (have %d blobs)", round, len(blobs))
		}
		resumed, err := resume(mk(), blob)
		if err != nil {
			t.Fatalf("resume at round %d: %v", round, err)
		}
		if !reflect.DeepEqual(expected, resumed) {
			t.Fatalf("chaotic kill/resume at round %d diverged from uninterrupted run", round)
		}
	}
}

// TestCheckpointCanonicalRoundtrip: a live checkpoint decodes, and its
// re-encoding is byte-identical (the canonical-form invariant the
// fuzzer drives at scale).
func TestCheckpointCanonicalRoundtrip(t *testing.T) {
	_, blobs := runWithCheckpoints(t, chaosScenario(t), 4)
	for round, blob := range blobs {
		ck, err := DecodeCheckpoint(blob)
		if err != nil {
			t.Fatalf("round %d: decode: %v", round, err)
		}
		re, err := EncodeCheckpoint(ck)
		if err != nil {
			t.Fatalf("round %d: re-encode: %v", round, err)
		}
		if !bytes.Equal(blob, re) {
			t.Fatalf("round %d: re-encoded checkpoint differs from original (%d vs %d bytes)",
				round, len(blob), len(re))
		}
		ck2, err := DecodeCheckpoint(re)
		if err != nil {
			t.Fatalf("round %d: second decode: %v", round, err)
		}
		if !reflect.DeepEqual(ck, ck2) {
			t.Fatalf("round %d: decode/encode/decode not a fixed point", round)
		}
	}
}

// TestCheckpointDecodeRejectsCorruption: the strict decoder must refuse
// bad magic, flipped payload bytes, truncations, trailing garbage, and
// snapshots whose (model, version) pairs do not strictly ascend.
func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	ds, tr, spec := smokeSetup(t, 8)
	cfg := ckptConfig()
	cfg.Rounds = 2
	rt := New(cfg, ds, tr, spec)
	rt.Run()
	blob, err := rt.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := DecodeCheckpoint(blob); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := DecodeCheckpoint(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0xff
	if _, err := DecodeCheckpoint(bad); err == nil {
		t.Error("flipped payload byte accepted")
	}
	for _, cut := range []int{1, 4, len(blob) / 2, len(blob) - 1} {
		if _, err := DecodeCheckpoint(blob[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := DecodeCheckpoint(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
	for _, tc := range []struct {
		snaps []CkptSnap
		ok    bool
	}{
		{[]CkptSnap{{ModelID: 1, Version: 3}, {ModelID: 2, Version: 1}}, true},
		{[]CkptSnap{{ModelID: 2, Version: 1}, {ModelID: 1, Version: 3}}, false},
		{[]CkptSnap{{ModelID: 1, Version: 3}, {ModelID: 1, Version: 2}}, false},
		{[]CkptSnap{{ModelID: 1, Version: 2}, {ModelID: 1, Version: 2}}, false},
	} {
		b, err := EncodeCheckpoint(&Checkpoint{Snaps: tc.snaps})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeCheckpoint(b); tc.ok != (err == nil) || !tc.ok && !errors.Is(err, ErrCkptCorrupt) {
			t.Errorf("snapshots %v: %v", tc.snaps, err)
		}
	}
}

// asyncSnapsCheckpoint is the first of asyncChaosScenario's checkpoints,
// from round 3 on, whose Snaps hold two or more in-flight versions.
func asyncSnapsCheckpoint(t testing.TB) []byte {
	t.Helper()
	_, blobs := runWithCheckpoints(t, asyncChaosScenario(t), 1)
	for round := 3; round < 12; round++ {
		if ck, err := DecodeCheckpoint(blobs[round]); err == nil && len(ck.Snaps) >= 2 {
			return blobs[round]
		}
	}
	t.Fatal("no asynchronous checkpoint holds two version snapshots")
	return nil
}

// TestRestoreRejectsHostileSnapshots: a v4 checkpoint whose snapshots or
// flights do not fit the runtime fails Restore with an error — never a
// panic — and leaves the runtime as New built it: a snapshot of a model
// the suite lacks, or at a version outside [Round−S, Round−1], each
// with its flights moved along so that only the snapshot is at fault;
// weights of another shape; a flight of a version no snapshot holds; and
// a snapshot no flight holds.
func TestRestoreRejectsHostileSnapshots(t *testing.T) {
	blob := asyncSnapsCheckpoint(t)
	mk := asyncChaosScenario(t)
	pristine := mk()
	if err := pristine.Restore(blob); err != nil {
		t.Fatalf("pristine checkpoint: %v", err)
	}
	pristine.drain()
	// move renames snapshot i, and every flight that trains from it, to
	// (model, v); renaming the first snapshot down or the last one up
	// keeps the list ascending.
	move := func(ck *Checkpoint, i, model, v int) {
		sn := &ck.Snaps[i]
		for j := range ck.Inflight {
			if f := &ck.Inflight[j]; f.ModelID == sn.ModelID && f.Version == sn.Version {
				f.ModelID, f.Version = model, v
			}
		}
		sn.ModelID, sn.Version = model, v
	}
	last := func(ck *Checkpoint) int { return len(ck.Snaps) - 1 }
	for _, tc := range []struct {
		name string
		edit func(ck *Checkpoint)
		want error
	}{
		{"snapshot of an unknown model", func(ck *Checkpoint) { move(ck, last(ck), 1<<20, ck.Round-1) }, ErrCkptCorrupt},
		{"snapshot at version Round", func(ck *Checkpoint) { move(ck, last(ck), ck.Snaps[last(ck)].ModelID, ck.Round) }, ErrCkptCorrupt},
		{"snapshot at version Round−S−1", func(ck *Checkpoint) { move(ck, 0, ck.Snaps[0].ModelID, ck.Round-pristine.cfg.MaxStaleness-1) }, ErrCkptCorrupt},
		{"snapshot at version −1", func(ck *Checkpoint) { move(ck, 0, ck.Snaps[0].ModelID, -1) }, ErrCkptCorrupt},
		{"flight of a version no snapshot holds", func(ck *Checkpoint) { ck.Inflight[0].Version = ck.Round }, ErrCkptCorrupt},
		{"snapshot weights of another shape", func(ck *Checkpoint) {
			ck.Snaps[0].Weights = codec.AppendEncode(nil, []*tensor.Tensor{tensor.New(3)})
		}, codec.ErrDstMismatch},
		{"snapshot no flight holds", func(ck *Checkpoint) {
			sn := ck.Snaps[0]
			ck.Inflight = slices.DeleteFunc(ck.Inflight, func(f CkptInflight) bool {
				return f.ModelID == sn.ModelID && f.Version == sn.Version
			})
		}, ErrCkptCorrupt},
	} {
		ck, err := DecodeCheckpoint(blob)
		if err != nil {
			t.Fatal(err)
		}
		tc.edit(ck)
		b, err := EncodeCheckpoint(ck)
		if err != nil {
			t.Fatal(err)
		}
		rt := mk()
		suite, draws := rt.suite, rt.rngSrc.n
		if err := rt.Restore(b); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
		if rt.resumed || len(rt.inflight) > 0 || len(rt.snaps) > 0 || !slices.Equal(rt.suite, suite) || rt.rngSrc.n != draws {
			t.Errorf("%s: the failed restore changed the runtime", tc.name)
		}
	}
}

// TestRestoreRejectsMismatchedRuntime: state in the blob must not
// silently vanish when the resuming config lacks the subsystem: in-flight
// asynchronous dispatches do not restore into a synchronous runtime.
func TestRestoreRejectsMismatchedRuntime(t *testing.T) {
	_, blobs := runWithCheckpoints(t, asyncChaosScenario(t), 1)
	tried := false
	for round, blob := range blobs {
		ck, err := DecodeCheckpoint(blob)
		if err != nil {
			t.Fatal(err)
		}
		if len(ck.Inflight) == 0 {
			continue
		}
		tried = true
		ds, tr, spec := smokeSetup(t, 20)
		cfg := ckptConfig()
		cfg.Rounds = 12
		if err := New(cfg, ds, tr, spec).Restore(blob); err == nil {
			t.Errorf("round %d: in-flight dispatches restored into a synchronous runtime", round)
		}
	}
	if !tried {
		t.Fatal("no checkpoint carried in-flight dispatches")
	}
}

// resign returns b with its last four bytes replaced by the checksum of
// the rest, so a mutated input reaches the parser instead of dying at
// ErrCkptChecksum.
func resign(b []byte) []byte {
	if len(b) < 4 {
		return b
	}
	return wire.Seal(bytes.Clone(b[:len(b)-4]), 0)
}

// FuzzCheckpointDecode: DecodeCheckpoint must never panic, and any blob
// it accepts — as given, or re-signed so that it passes the checksum —
// must re-encode to the identical bytes (canonical form).
func FuzzCheckpointDecode(f *testing.F) {
	ds, tr, spec := smokeSetup(f, 8)
	cfg := ckptConfig()
	cfg.Rounds = 3
	rt := New(cfg, ds, tr, spec)
	rt.Run()
	blob, err := rt.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte("FTCP"))
	f.Add(blob[:len(blob)/2])
	golden, _ := EncodeCheckpoint(goldenCheckpoint())
	f.Add(golden)
	f.Add(readHex(f, "testdata/checkpoint_v2.hex"))
	f.Add(readHex(f, "testdata/checkpoint_v3.hex"))
	// A blob whose utility list skips clients: an asynchronous run over a
	// generative population few of whose clients ever trained.
	f.Add(sparseCheckpoint(f, 400))
	// An asynchronous checkpoint taken mid-run, whose Snaps hold the
	// weights of two or more in-flight versions.
	f.Add(asyncSnapsCheckpoint(f))
	// A model count the blob cannot hold, under a valid checksum.
	hostile := bytes.Clone(golden)
	copy(hostile[ckptModelsAt:], "\xff\xff\xff\xff")
	f.Add(resign(hostile))
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, b := range [][]byte{in, resign(in)} {
			ck, err := DecodeCheckpoint(b)
			if err != nil {
				continue
			}
			re, err := EncodeCheckpoint(ck)
			if err != nil {
				t.Fatalf("decoded checkpoint failed to re-encode: %v", err)
			}
			if !bytes.Equal(b, re) {
				t.Fatalf("decode accepted a non-canonical blob: %d bytes in, %d bytes out", len(b), len(re))
			}
		}
	})
}

// BenchmarkCheckpointSnapshot measures the only synchronous cost a
// checkpoint adds to the round loop: the COW suite clone plus scalar
// state copies. Encoding and the sink run off the critical path.
func BenchmarkCheckpointSnapshot(b *testing.B) {
	ds, tr, spec := smokeSetup(b, 12)
	cfg := ckptConfig()
	cfg.Rounds = 6
	rt := New(cfg, ds, tr, spec)
	rt.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := rt.snapshot(rt.nextRound)
		for _, m := range s.models {
			m.Release()
		}
	}
}

// BenchmarkCheckpointEncode measures the full snapshot→FTCP-blob path
// (model serialization included) that the background goroutine pays.
func BenchmarkCheckpointEncode(b *testing.B) {
	ds, tr, spec := smokeSetup(b, 12)
	cfg := ckptConfig()
	cfg.Rounds = 6
	rt := New(cfg, ds, tr, spec)
	rt.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRestoreRejectsGeometryMismatch: a checkpoint records the dataset
// geometry it trained on; resuming onto differently shaped data
// (feature dimension, class count, or a shrunk client population) must
// fail with ErrGeometryMismatch instead of silently producing garbage.
// Growing the population with identical shapes stays legal — that is
// the documented late-joiner path.
func TestRestoreRejectsGeometryMismatch(t *testing.T) {
	mk := func() *Runtime {
		ds, tr, spec := smokeSetup(t, 12)
		cfg := ckptConfig()
		cfg.Rounds = 6
		return New(cfg, ds, tr, spec)
	}
	_, blobs := runWithCheckpoints(t, mk, 3)
	blob := blobs[3]

	build := func(profile string, clients int) *Runtime {
		model.ResetIDs()
		ds := data.Generate(data.Config{Profile: profile, Clients: clients, Seed: 7})
		spec := model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes)
		tr := device.NewTrace(device.TraceConfig{
			N: clients, MinCapacityMACs: 2_000, MaxCapacityMACs: 200_000, Seed: 3,
		})
		cfg := ckptConfig()
		cfg.Rounds = 6
		return New(cfg, ds, tr, spec)
	}

	if err := build("cifar10", 12).Restore(blob); !errors.Is(err, ErrGeometryMismatch) {
		t.Errorf("restore onto cifar10 feature geometry: err = %v, want ErrGeometryMismatch", err)
	}
	if err := build("femnist", 6).Restore(blob); !errors.Is(err, ErrGeometryMismatch) {
		t.Errorf("restore onto a shrunk client population: err = %v, want ErrGeometryMismatch", err)
	}
	res, err := resume(build("femnist", 16), blob)
	if err != nil {
		t.Fatalf("resume onto a grown same-shape population failed: %v", err)
	}
	if res.RoundsRun != 6 {
		t.Errorf("grown-population resume ran %d rounds, want 6", res.RoundsRun)
	}
}
