package fedtrans

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"fedtrans/internal/codec"
	"fedtrans/internal/model"
	"fedtrans/internal/tensor"
)

func TestDefaultOptionsMatchPaper(t *testing.T) {
	o := DefaultOptions()
	if o.LocalSteps != 20 || o.BatchSize != 10 || o.LearningRate != 0.05 {
		t.Errorf("local training defaults %+v do not match §5.1", o)
	}
	if o.Alpha != 0.9 {
		t.Errorf("alpha default = %v, want 0.9", o.Alpha)
	}
	if o.WidenFactor != 2 || o.DeepenCells != 1 {
		t.Errorf("transformation degrees = %v/%v", o.WidenFactor, o.DeepenCells)
	}
}

func TestNewSessionValidation(t *testing.T) {
	opts := DefaultOptions()
	opts.Profile = "mnist-unknown"
	if _, err := NewSession(opts); err == nil {
		t.Error("unknown profile must fail")
	}
	opts = DefaultOptions()
	opts.Clients = 5
	opts.ClientsPerRound = 10
	if _, err := NewSession(opts); err == nil {
		t.Error("participants > clients must fail")
	}
}

// TestZeroOptionsRejected: Options{} is not a request for the defaults.
// It is out of range, and the first field it fails is the profile.
func TestZeroOptionsRejected(t *testing.T) {
	_, err := NewSession(Options{})
	if !errors.Is(err, ErrInvalidOptions) || !strings.Contains(err.Error(), "Profile") {
		t.Fatalf("NewSession(Options{}) = %v, want ErrInvalidOptions naming Profile", err)
	}
}

// smallOptions is a seconds-sized femnist session.
func smallOptions() Options {
	o := DefaultOptions()
	o.Clients, o.ClientsPerRound, o.Rounds = 12, 4, 2
	return o
}

// TestOptionsEdgeValuesRejected: a value outside its field's range is
// ErrInvalidOptions naming the field. Each used to be replaced by the
// default.
func TestOptionsEdgeValuesRejected(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Options)
	}{
		{"DeepenCells", func(o *Options) { o.DeepenCells = 0 }},
		{"WidenFactor", func(o *Options) { o.WidenFactor = 1 }},
		{"Alpha", func(o *Options) { o.Alpha = 0 }},
		{"Beta", func(o *Options) { o.Beta = 0 }},
		{"LearningRate", func(o *Options) { o.LearningRate = 0 }},
		{"Quorum", func(o *Options) { o.Quorum = 1.5 }},
		{"CrashRate", func(o *Options) { o.Chaos.CrashRate = -0.1 }},
		// Deprecated and read by nothing, but what was invalid stays so.
		{"EdgeAggregators", func(o *Options) { o.EdgeAggregators = -1 }},
	} {
		o := smallOptions()
		tc.set(&o)
		_, err := NewSession(o)
		if !errors.Is(err, ErrInvalidOptions) || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: NewSession = %v, want ErrInvalidOptions naming the field", tc.field, err)
		}
	}
}

// TestOptionsEdgeValuesHonoured: a value at the edge of its range is run
// as given — a spread of 1 is a trace without disparity, 0 rounds trains
// nothing, seed 0 is a seed — where each used to become the default.
func TestOptionsEdgeValuesHonoured(t *testing.T) {
	disparity := func(spread float64) float64 {
		o := smallOptions()
		o.CapacitySpread = spread
		s, err := NewSession(o)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return s.DeviceDisparity()
	}
	if one, wide := disparity(1), disparity(32); one >= wide {
		t.Errorf("disparity at spread 1 = %v, at spread 32 = %v", one, wide)
	}

	run := func(set func(*Options)) Summary {
		o := smallOptions()
		set(&o)
		sum, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	if sum := run(func(o *Options) { o.Rounds = 0 }); sum.Rounds != 0 {
		t.Errorf("Rounds 0 ran %d rounds", sum.Rounds)
	}
	if reflect.DeepEqual(run(func(o *Options) { o.Seed = 0 }), run(func(o *Options) { o.Seed = 1 })) {
		t.Error("seed 0 trained exactly what seed 1 trains")
	}
}

func TestEndToEndRun(t *testing.T) {
	opts := DefaultOptions()
	opts.Clients = 16
	opts.Rounds = 30
	opts.ClientsPerRound = 6
	sum, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sum.MeanAccuracy < 2.0/16 {
		t.Errorf("accuracy %.3f below 2x chance", sum.MeanAccuracy)
	}
	if len(sum.ClientAccuracy) != 16 {
		t.Errorf("per-client accuracies = %d", len(sum.ClientAccuracy))
	}
	if len(sum.Models) == 0 {
		t.Fatal("no models reported")
	}
	if !strings.Contains(sum.Models[0].Arch, "head(") {
		t.Errorf("arch string %q malformed", sum.Models[0].Arch)
	}
	if sum.TrainMACs <= 0 || sum.NetworkBytes <= 0 || sum.StorageBytes <= 0 {
		t.Errorf("cost summary incomplete: %+v", sum)
	}
	if sum.Rounds != 30 && sum.Rounds <= 0 {
		t.Errorf("rounds = %d", sum.Rounds)
	}
}

func TestSessionDisparity(t *testing.T) {
	opts := DefaultOptions()
	opts.Clients = 30
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.DeviceDisparity() <= 1 {
		t.Errorf("disparity = %v", s.DeviceDisparity())
	}
}

func TestRunDeterminismAcrossProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("two runs per profile")
	}
	for _, p := range []string{"femnist", "vit"} {
		opts := DefaultOptions()
		opts.Profile = p
		opts.Clients = 10
		opts.Rounds = 10
		opts.ClientsPerRound = 4
		a, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if a.MeanAccuracy != b.MeanAccuracy {
			t.Errorf("%s: nondeterministic accuracy %v vs %v", p, a.MeanAccuracy, b.MeanAccuracy)
		}
	}
}

// TestScaleProfileMassiveRound exercises the streaming aggregation
// pipeline through the public API at a (CI-sized) massive round: many
// more participants per round than the stream window, on the scale
// profile's deliberately small task. That the result is the same for
// every window is fl's TestRunDeterminismSerialParallelCOW.
func TestScaleProfileMassiveRound(t *testing.T) {
	opts := ScaleOptions()
	opts.Clients = 240
	opts.ClientsPerRound = 200
	opts.Rounds = 3
	opts.LocalSteps = 2
	a, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != 3 {
		t.Fatalf("rounds = %d", a.Rounds)
	}
	if a.MeanAccuracy <= 0 || a.NetworkBytes <= 0 || a.TrainMACs <= 0 {
		t.Fatalf("degenerate scale summary: %+v", a)
	}
}

// TestSessionCheckpointResume drives checkpoint/resume through the public
// API: a run with CheckpointPath set leaves a resumable file behind, and a
// fresh session resumed from it reproduces the uninterrupted run exactly.
func TestSessionCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	opts := DefaultOptions()
	opts.Clients = 12
	opts.Rounds = 8
	opts.ClientsPerRound = 4
	opts.CheckpointPath = path
	opts.CheckpointEvery = 3

	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	full := s.Run()
	if err := s.CheckpointError(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	s2, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := s2.Resume(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Errorf("resumed summary diverged:\nfull    %+v\nresumed %+v", full, resumed)
	}

	if _, err := s2.Checkpoint(); err != nil {
		t.Errorf("post-run Checkpoint: %v", err)
	}
	if _, err := s2.Resume([]byte("not a checkpoint")); err == nil {
		t.Error("garbage blob must fail to resume")
	}
}

// TestCheckpointSinkFailureKeepsRun: a checkpoint that cannot be written
// (its path lies below a regular file, so the write fails with ENOTDIR
// even for root, whom a read-only directory does not stop) leaves the
// run's Summary that of an unchecked run, and CheckpointError reports the
// round it failed at.
func TestCheckpointSinkFailureKeepsRun(t *testing.T) {
	opts := DefaultOptions()
	opts.Clients = 12
	opts.Rounds = 5
	opts.ClientsPerRound = 4
	want, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	opts.CheckpointPath = filepath.Join(file, "ck.bin")
	opts.CheckpointEvery = 3
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Run(); !reflect.DeepEqual(got, want) {
		t.Errorf("a failing checkpoint sink changed the run:\n got %+v\nwant %+v", got, want)
	}
	err = s.CheckpointError()
	if !errors.Is(err, syscall.ENOTDIR) || !strings.Contains(err.Error(), "checkpoint at round 3") {
		t.Fatalf("CheckpointError() = %v, want ENOTDIR at round 3", err)
	}
}

// TestCheckpointAfterEarlyStopResumesNoRound pins resume after a run the
// convergence rule ended: the checkpoint taken after Run holds no round
// left to train, so resuming it reproduces the stopped run instead of
// training on to Rounds.
func TestCheckpointAfterEarlyStopResumesNoRound(t *testing.T) {
	opts := DefaultOptions()
	opts.Clients = 20
	opts.Rounds = 400
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	full := s.Run()
	if full.Rounds >= opts.Rounds {
		t.Fatalf("the run trained all %d rounds: the convergence rule never stopped it", full.Rounds)
	}
	blob, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := s2.Resume(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, resumed) {
		t.Errorf("resuming the stopped run diverged: %d rounds, accuracy %v; the run stopped at %d rounds, accuracy %v",
			resumed.Rounds, resumed.MeanAccuracy, full.Rounds, full.MeanAccuracy)
	}
}

// TestRunWithChaosAndQuorum exercises the fault-injection and elastic-round
// options end to end: faults occur, retries happen, and the run stays
// deterministic.
func TestRunWithChaosAndQuorum(t *testing.T) {
	opts := DefaultOptions()
	opts.Clients = 14
	opts.Rounds = 10
	opts.ClientsPerRound = 5
	opts.Quorum = 0.5
	opts.RetryBudget = 1
	opts.Chaos = ChaosOptions{CrashRate: 0.25, StragglerRate: 0.1, StragglerDelay: 5}

	a, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Retries == 0 {
		t.Error("no retries at 25% crash rate with a retry budget")
	}
	if a.MeanAccuracy < 1.0/16 {
		t.Errorf("accuracy %.3f collapsed under chaos", a.MeanAccuracy)
	}
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("chaos run nondeterministic:\n%+v\n%+v", a, b)
	}
}

func TestExportAndDeploy(t *testing.T) {
	opts := DefaultOptions()
	opts.Clients = 12
	opts.Rounds = 15
	opts.ClientsPerRound = 5
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	blob, err := s.ExportModel(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExportModel(99); err == nil {
		t.Error("out-of-range export must fail")
	}
	d, err := LoadModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	info := d.Info()
	if info.Params <= 0 || info.MACs <= 0 {
		t.Errorf("deployed info %+v", info)
	}
	features := make([]float64, 64)
	y, err := d.Predict(features)
	if err != nil {
		t.Fatal(err)
	}
	if y < 0 || y >= 16 {
		t.Errorf("prediction %d out of class range", y)
	}
	if _, err := d.Predict(make([]float64, 7)); err == nil {
		t.Error("wrong feature dim must fail")
	}
	batch, err := d.PredictBatch([][]float64{features, features})
	if err != nil || len(batch) != 2 {
		t.Errorf("batch prediction: %v %v", batch, err)
	}
	if _, err := LoadModel([]byte("junk")); err == nil {
		t.Error("junk blob must fail")
	}
}

// TestAttentionHeadsOption covers the public multi-head knob: a vit run
// with AttentionHeads set trains end to end (and reports the head count
// in the arch string), invalid head counts are rejected up front, and
// heads on a non-attention profile is an error rather than a silent
// no-op.
func TestAttentionHeadsOption(t *testing.T) {
	opts := DefaultOptions()
	opts.Profile = "vit"
	opts.Clients = 6
	opts.ClientsPerRound = 2
	opts.Rounds = 2
	opts.LocalSteps = 2
	opts.AttentionHeads = 2
	sum, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Models) == 0 {
		t.Fatal("no models reported")
	}
	if !strings.Contains(sum.Models[0].Arch, "heads=2") {
		t.Errorf("arch string %q does not report the head count", sum.Models[0].Arch)
	}

	bad := opts
	bad.AttentionHeads = 3 // vit model dim is 8
	if _, err := NewSession(bad); err == nil {
		t.Error("non-dividing head count must be rejected")
	}
	bad.AttentionHeads = -1
	if _, err := NewSession(bad); err == nil {
		t.Error("negative head count must be rejected")
	}
	wrong := DefaultOptions()
	wrong.AttentionHeads = 2 // femnist builds dense cells
	if _, err := NewSession(wrong); err == nil {
		t.Error("heads on a non-attention profile must be rejected")
	}
}

// TestLoadModelRejectsHostileTensorCount: a 64-byte blob whose weight
// part claims 2³²−1 tensors under a valid checksum is an error, not the
// fatal out-of-memory it was when the loader sized its tensor list from
// the count.
func TestLoadModelRejectsHostileTensorCount(t *testing.T) {
	blob := "\x00\x00\x00\x30" + `{"version":1,"input":[4],"classes":2,"cells":[]}` +
		"FTW1\xff\xff\xff\xff\x0e\x3b\x50\x3d"
	if d, err := LoadModel([]byte(blob)); err == nil {
		t.Fatalf("loaded %+v from the hostile blob", d.Info())
	}
}

// TestLoadModelBoundsInputExtents: a blob whose header claims an input
// no weight bounds — a conv model 2³¹ pixels on a side, an attention
// model of 2⁴⁰ tokens — is model.ErrCorruptModel. Both used to load with
// an InputDim that overflowed.
func TestLoadModelBoundsInputExtents(t *testing.T) {
	blob := func(header string, shapes ...[]int) []byte {
		ws := make([]*tensor.Tensor, len(shapes))
		for i, s := range shapes {
			ws[i] = tensor.New(s...)
		}
		return codec.AppendEncode(append(binary.BigEndian.AppendUint32(nil, uint32(len(header))), header...), ws)
	}
	for name, b := range map[string][]byte{
		"conv": blob(`{"version":1,"input":[2,2147483648,2147483648],"classes":3,"cells":[{"kind":"conv2d"},{"kind":"gap"}]}`,
			[]int{4, 2, 3, 3}, []int{4}, []int{4, 3}, []int{3}),
		"attention": blob(`{"version":1,"input":[1099511627776,4],"classes":2,"cells":[{"kind":"attention"},{"kind":"meantokens"}]}`,
			[]int{4, 4}, []int{4, 4}, []int{4, 4}, []int{4, 4}, []int{4, 8}, []int{8}, []int{8, 4}, []int{4}, []int{4, 2}, []int{2}),
	} {
		if d, err := LoadModel(b); !errors.Is(err, model.ErrCorruptModel) {
			t.Errorf("%s: loaded %v with error %v, want model.ErrCorruptModel", name, d, err)
		}
	}
}

// brokenChainSpecs pairs, per cell family, a two-cell model with a wider
// one. The first's header over the first's first cell and the second's
// remaining tensors is a blob in which every tensor is possible on its
// own and the second cell does not take what the first emits.
var brokenChainSpecs = [][2]model.Spec{
	{{Family: "dense", Input: []int{4}, Hidden: []int{3, 3}, Classes: 2}, {Family: "dense", Input: []int{4}, Hidden: []int{5, 5}, Classes: 2}},
	{{Family: "conv", Input: []int{2, 6, 6}, Hidden: []int{3, 3}, Classes: 2}, {Family: "conv", Input: []int{2, 6, 6}, Hidden: []int{5, 5}, Classes: 2}},
	{{Family: "attention", Input: []int{2, 4}, Hidden: []int{4, 4}, Classes: 2}, {Family: "attention", Input: []int{2, 6}, Hidden: []int{4, 4}, Classes: 2}},
	{{Family: "residual", Input: []int{4}, Hidden: []int{3, 3}, Classes: 2}, {Family: "residual", Input: []int{6}, Hidden: []int{3, 3}, Classes: 2}},
}

// TestLoadModelRejectsBrokenChain: a blob whose cells do not chain is
// model.ErrCorruptModel at load. It used to load, and panic inside the
// first Predict.
func TestLoadModelRejectsBrokenChain(t *testing.T) {
	for _, pair := range brokenChainSpecs {
		a := pair[0].BuildScoped(randFor(1), model.NewIDGen())
		b := pair[1].BuildScoped(randFor(1), model.NewIDGen())
		blob, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := LoadModel(blob); err != nil {
			t.Fatalf("%s: the unmixed blob: %v", pair[0].Family, err)
		}
		hdr := 4 + int(binary.BigEndian.Uint32(blob))
		first := len(a.Cells[0].Cell.Params())
		mixed := codec.AppendEncode(blob[:hdr:hdr], append(a.Params()[:first:first], b.Params()[first:]...))
		if d, err := LoadModel(mixed); !errors.Is(err, model.ErrCorruptModel) {
			t.Errorf("%s: loaded %v with error %v, want model.ErrCorruptModel", pair[0].Family, d, err)
		}
	}
}
