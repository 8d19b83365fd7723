package fl

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"fedtrans/internal/assign"
	"fedtrans/internal/metrics"
)

// goldenCheckpoint fills every FTCP field from literals — no training,
// no rng — so the bytes are the same on every architecture: negative
// and 64-bit integers, a NaN payload, nil next to empty maps and
// slices, the async in-flight list with its version snapshots, Yogi
// moments, activeness windows and a RoundLog with and without its map.
func goldenCheckpoint() *Checkpoint {
	return &Checkpoint{
		Round: 7, RNGCount: 0x0123456789abcdef, BestAcc: 0.8125, Stall: 2,
		ModelCtr: 5, CellCtr: 19,
		Clients: 12, FeatureDim: 16, Classes: 4,
		Models: []CkptModel{
			{Blob: []byte("model-blob-one"), ID: 1, ParentID: -1, BornRound: 0, Cells: []CkptCell{
				{ID: 1, AncestorID: 1, InheritedFrac: 1},
				{ID: 2, AncestorID: 2, InheritedFrac: 0.25, WidenedLast: true},
			}},
			{Blob: []byte{0x00, 0xff, 0x80}, ID: 3, ParentID: 1, BornRound: 4, Cells: []CkptCell{
				{ID: 17, AncestorID: 2, InheritedFrac: 0.5},
			}},
			{ID: 4, ParentID: 3, BornRound: 6},
		},
		Utilities: []assign.ClientUtility{{Client: 0, U: []assign.Utility{{Model: 0, Value: 0.5}, {Model: 3, Value: -1.25}, {Model: 11, Value: 2}}}},
		DoCLosses: []float64{2.5, 2.25, math.Float64frombits(0x7ff8000000000abc)},
		Act: []CkptAct{
			{ModelID: 1, Hist: map[int64][]float64{1: {0.125, 0.25}, 2: nil, 1 << 40: {1}}},
			{ModelID: 3, Hist: map[int64][]float64{}},
		},
		Yogi: []CkptYogi{
			{Slot: 0, M: []float64{0.5, -0.5}, V: []float64{1e-6, 2e-6}},
			{Slot: 2},
		},
		AsyncNow: 12.5, StaleSum: 9, StaleCnt: 4, AsyncSeq: 31,
		Snaps: []CkptSnap{
			{ModelID: 1, Version: 6, Weights: []byte("src-a")},
			{ModelID: 3, Version: 7},
		},
		Inflight: []CkptInflight{
			{Client: 3, ModelID: 1, Version: 6, Seq: 29, DispatchAt: 11.75},
			{Client: 8, ModelID: 3, Version: 7, Seq: 30, DispatchAt: 12.25},
		},
		Res: Result{
			ClientAcc: []float64{0.5, 0.75, 1},
			MeanAcc:   0.75,
			Box:       metrics.BoxStats{Min: 0.5, Q1: 0.625, Median: 0.75, Q3: 0.875, Max: 1, Mean: 0.75},
			Costs:     metrics.Costs{TrainMACs: 1.5e9, NetworkBytes: 1 << 33, StorageBytes: 4096},
			SuiteArch: []string{"d8-d8", "", "d16-d8"},
			SuiteMACs: []float64{128, 256, 384}, RoundsRun: 7,
			Overhead:      Overhead{UtilityUpdates: 42, DoCUpdates: 7, Transforms: 2},
			BestModelMACs: []float64{128, 384, 128},
			Failures:      1, Retries: 5, AbortedRounds: 1, MeanStaleness: 0.75,
			Log: []RoundLog{
				{Round: 0, Updates: 4, MeanLoss: 2.5, RoundTime: 3.5,
					UpdatesPerModel: map[int]int{1: 3, 3: 1}, Transformed: true, SuiteSize: 2,
					Failures: 1, Retries: 2, Committed: true, Evaluated: true, MeanAcc: 0.25},
				{Round: 1, MeanLoss: math.Inf(1), RoundTime: 4.25, TrainMACs: 5e5, SuiteSize: 2},
				{Round: 2, TrainMACs: 1e6, UpdatesPerModel: map[int]int{}, Committed: true,
					Evaluated: true, MeanAcc: 0.5},
			},
		},
	}
}

// TestCheckpointGoldenBytes pins FTCP v4 absolutely: the literal
// checkpoint encodes to the committed bytes, and the committed bytes
// decode and re-encode to themselves.
func TestCheckpointGoldenBytes(t *testing.T) {
	got, err := EncodeCheckpoint(goldenCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	want := readHex(t, "testdata/checkpoint_v4.hex")
	if !bytes.Equal(got, want) {
		t.Fatalf("FTCP encoding moved: %d bytes, golden %d\n got %x", len(got), len(want), got)
	}
	ck, err := DecodeCheckpoint(want)
	if err != nil {
		t.Fatalf("golden blob does not decode: %v", err)
	}
	if re, err := EncodeCheckpoint(ck); err != nil || !bytes.Equal(re, want) {
		t.Fatalf("decode → encode of the golden blob is not the identity (err %v)", err)
	}
	if ck.Inflight[0].Seq != 29 || string(ck.Snaps[0].Weights) != "src-a" || ck.Res.Log[0].UpdatesPerModel[3] != 1 ||
		math.Float64bits(ck.DoCLosses[2]) != 0x7ff8000000000abc || ck.Models[0].ParentID != -1 {
		t.Fatalf("golden blob decoded to the wrong values: %+v", ck)
	}
}

// TestEncodeCheckpointSizesItsBuffer: EncodeCheckpoint allocates its
// buffer once, at the checkpoint's final size, for the golden literal
// and for a trained run's checkpoint.
func TestEncodeCheckpointSizesItsBuffer(t *testing.T) {
	rt := benchRuntime("femnist")
	rt.Run()
	blob, err := rt.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	golden, err := EncodeCheckpoint(goldenCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{golden, blob} {
		if cap(b) != len(b) {
			t.Errorf("a %d-byte checkpoint was encoded into a %d-byte buffer", len(b), cap(b))
		}
	}
}

// readHex reads a hex-encoded test blob.
func readHex(t testing.TB, path string) []byte {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointRejectsRetiredVersion: the v2 and v3 goldens, intact
// blobs of earlier formats, fail with ErrCkptVersion rather than
// decoding into wrong fields.
func TestCheckpointRejectsRetiredVersion(t *testing.T) {
	for _, v := range []string{"v2", "v3"} {
		if _, err := DecodeCheckpoint(readHex(t, "testdata/checkpoint_"+v+".hex")); !errors.Is(err, ErrCkptVersion) {
			t.Errorf("FTCP %s blob: %v, want ErrCkptVersion", v, err)
		}
	}
}

// ckptModelsAt is the offset of the model count in any FTCP v4 blob:
// magic, version and nine 8-byte scalars precede it.
const ckptModelsAt = 4 + 4 + 9*8

// TestCheckpointRejectsHostileCounts: a count the remaining bytes cannot
// hold is truncation, found before anything is allocated for it, and a
// utility list that breaks the canonical form — IDs out of order or out
// of range, an entry with no models — is corrupt, because decoding it
// and encoding again would not give the same bytes; so is a dispatch to
// a client the checkpoint does not cover.
func TestCheckpointRejectsHostileCounts(t *testing.T) {
	enc := func(ck *Checkpoint) []byte {
		b, err := EncodeCheckpoint(ck)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	empty := enc(&Checkpoint{})
	if _, err := DecodeCheckpoint(empty); err != nil {
		t.Fatalf("empty checkpoint: %v", err)
	}
	huge := bytes.Clone(empty)
	copy(huge[ckptModelsAt:], "\xff\xff\xff\xff")
	one := []assign.Utility{{Model: 1, Value: 0.5}}
	utilities := func(clients int, us ...assign.ClientUtility) []byte {
		return enc(&Checkpoint{Clients: clients, Utilities: us})
	}
	if _, err := DecodeCheckpoint(utilities(4, assign.ClientUtility{Client: 1, U: one}, assign.ClientUtility{Client: 3, U: one})); err != nil {
		t.Fatalf("two ascending utility entries: %v", err)
	}
	for _, tc := range []struct {
		name string
		blob []byte
		want error
	}{
		{"2³²−1 models", resign(huge), ErrCkptTruncated},
		{"utility client IDs descending", utilities(4, assign.ClientUtility{Client: 3, U: one}, assign.ClientUtility{Client: 1, U: one}), ErrCkptCorrupt},
		{"utility client ID repeated", utilities(4, assign.ClientUtility{Client: 1, U: one}, assign.ClientUtility{Client: 1, U: one}), ErrCkptCorrupt},
		{"utility client ID = Clients", utilities(4, assign.ClientUtility{Client: 4, U: one}), ErrCkptCorrupt},
		{"negative utility client ID", utilities(4, assign.ClientUtility{Client: -1, U: one}), ErrCkptCorrupt},
		{"empty utility list", utilities(4, assign.ClientUtility{Client: 2, U: []assign.Utility{}}), ErrCkptCorrupt},
		{"utility model IDs repeated", utilities(4, assign.ClientUtility{Client: 2, U: []assign.Utility{{Model: 1}, {Model: 1}}}), ErrCkptCorrupt},
		{"utility model IDs descending", utilities(4, assign.ClientUtility{Client: 2, U: []assign.Utility{{Model: 3}, {Model: 1}}}), ErrCkptCorrupt},
		{"in-flight client ID = Clients", enc(&Checkpoint{Clients: 4, Inflight: []CkptInflight{{Client: 4}}}), ErrCkptCorrupt},
	} {
		if _, err := DecodeCheckpoint(tc.blob); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
}
