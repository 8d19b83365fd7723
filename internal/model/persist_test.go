package model

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	"fedtrans/internal/codec"
	"fedtrans/internal/tensor"
	"fedtrans/internal/wire"
)

func roundTrip(t *testing.T, spec Spec, features int) {
	t.Helper()
	ResetIDs()
	rng := rand.New(rand.NewSource(1))
	m := spec.Build(rng)
	x := probe(rng, 3, features)
	want := m.Forward(x)

	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: marshal: %v", spec.Family, err)
	}
	back, err := UnmarshalModelScoped(blob, globalIDs)
	if err != nil {
		t.Fatalf("%s: unmarshal: %v", spec.Family, err)
	}
	got := back.Forward(x)
	if !tensor.Equal(want, got, 1e-5) {
		t.Errorf("%s: loaded model computes a different function", spec.Family)
	}
	if back.ParamCount() != m.ParamCount() {
		t.Errorf("%s: params %d != %d", spec.Family, back.ParamCount(), m.ParamCount())
	}
	if back.MACsPerSample() != m.MACsPerSample() {
		t.Errorf("%s: MACs %v != %v", spec.Family, back.MACsPerSample(), m.MACsPerSample())
	}
}

func TestPersistRoundTripAllFamilies(t *testing.T) {
	roundTrip(t, Spec{Family: "dense", Input: []int{8}, Hidden: []int{6, 6}, Classes: 4}, 8)
	roundTrip(t, Spec{Family: "conv", Input: []int{2, 6, 6}, Hidden: []int{3, 4, 4}, Classes: 3}, 72)
	roundTrip(t, Spec{Family: "attention", Input: []int{4, 6}, Hidden: []int{8}, Classes: 3}, 24)
	roundTrip(t, Spec{Family: "residual", Input: []int{8}, Hidden: []int{6}, Classes: 4}, 8)
}

func TestPersistTransformedModel(t *testing.T) {
	ResetIDs()
	rng := rand.New(rand.NewSource(2))
	m := Spec{Family: "dense", Input: []int{8}, Hidden: []int{6}, Classes: 4}.Build(rng)
	m.WidenCell(0, 2, rng)
	m.DeepenCell(0)
	x := probe(rng, 2, 8)
	want := m.Forward(x)
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalModelScoped(blob, globalIDs)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(want, back.Forward(x), 1e-5) {
		t.Error("transformed model lost its function across persistence")
	}
	if back.NumCells() != m.NumCells() {
		t.Errorf("cells %d != %d", back.NumCells(), m.NumCells())
	}
}

func TestPersistRejectsCorruption(t *testing.T) {
	ResetIDs()
	rng := rand.New(rand.NewSource(3))
	m := Spec{Family: "dense", Input: []int{4}, Hidden: []int{3}, Classes: 2}.Build(rng)
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalModelScoped(nil, globalIDs); err == nil {
		t.Error("nil blob must fail")
	}
	if _, err := UnmarshalModelScoped(blob[:3], globalIDs); err == nil {
		t.Error("truncated header length must fail")
	}
	if _, err := UnmarshalModelScoped(blob[:len(blob)-2], globalIDs); err == nil {
		t.Error("truncated weights must fail")
	}
	// Flip a weight byte: codec checksum must catch it.
	bad := append([]byte(nil), blob...)
	bad[len(bad)-10] ^= 0xFF
	if _, err := UnmarshalModelScoped(bad, globalIDs); err == nil {
		t.Error("corrupted weights must fail")
	}
}

func TestPersistFreshLineage(t *testing.T) {
	ResetIDs()
	rng := rand.New(rand.NewSource(4))
	m := Spec{Family: "dense", Input: []int{4}, Hidden: []int{3}, Classes: 2}.Build(rng)
	blob, _ := m.MarshalBinary()
	back, err := UnmarshalModelScoped(blob, globalIDs)
	if err != nil {
		t.Fatal(err)
	}
	if back.ParentID != -1 {
		t.Errorf("loaded model ParentID = %d, want -1 (fresh root)", back.ParentID)
	}
	if Sim(m, back) != 0 {
		t.Error("loaded model must not share lineage with the original")
	}
}

// TestUnmarshalModelScopedIsolatedFromGlobal is the regression test for
// loading models inside parallel experiment grids: a scoped load must
// not consume IDs from the shared global scope (which would make
// concurrent runs' ID sequences scheduling-dependent), and repeated
// scoped loads must be deterministic.
func TestUnmarshalModelScopedIsolatedFromGlobal(t *testing.T) {
	ResetIDs()
	rng := rand.New(rand.NewSource(5))
	m := Spec{Family: "dense", Input: []int{4}, Hidden: []int{3}, Classes: 2}.Build(rng)
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loadScoped := func() *Model {
		back, err := UnmarshalModelScoped(blob, NewIDGen())
		if err != nil {
			t.Fatal(err)
		}
		return back
	}
	a := loadScoped()
	b := loadScoped()
	if a.ID != b.ID {
		t.Errorf("scoped loads not deterministic: IDs %d vs %d", a.ID, b.ID)
	}
	if a.ID != 1 {
		t.Errorf("fresh-scope load got ID %d, want 1", a.ID)
	}
	// The global scope must be untouched: the next globally-built model
	// follows m directly.
	next := Spec{Family: "dense", Input: []int{4}, Hidden: []int{3}, Classes: 2}.Build(rng)
	if next.ID != m.ID+1 {
		t.Errorf("global scope perturbed by scoped loads: next ID %d, want %d", next.ID, m.ID+1)
	}
	// Derivations of a scoped-loaded model stay inside its scope too.
	beforeCell := globalIDs.cell.Load()
	a.DeepenCell(0)
	if globalIDs.cell.Load() != beforeCell {
		t.Error("DeepenCell on a scoped-loaded model consumed a global cell ID")
	}
}

// TestPersistMultiStrideSpatialTracking checks the generalized
// ceil(size/stride) spatial tracking in UnmarshalModel: a conv stack
// with several stride-2 downsamples must report identical MACs before
// and after persistence.
func TestPersistMultiStrideSpatialTracking(t *testing.T) {
	ResetIDs()
	rng := rand.New(rand.NewSource(6))
	// Hidden{2,2,3,3,4}: Build assigns stride 2 at indices 2 and 4, so
	// the spatial size downsamples twice (9x9 -> 5x5 -> 3x3).
	spec := Spec{Family: "conv", Input: []int{1, 9, 9}, Hidden: []int{2, 2, 3, 3, 4}, Classes: 3}
	m := spec.Build(rng)
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalModelScoped(blob, globalIDs)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := back.MACsPerSample(), m.MACsPerSample(); got != want {
		t.Errorf("MACs after load = %v, want %v", got, want)
	}
}

// TestPersistMultiHeadAttention covers the heads field end to end: the
// round trip preserves the head count and the computed function, a
// headerless (pre-multi-head) blob decodes as heads=1 with an unchanged
// byte stream, and a head count that does not divide the model dimension
// is rejected as corruption.
func TestPersistMultiHeadAttention(t *testing.T) {
	spec := Spec{Family: "attention", Input: []int{4, 6}, Hidden: []int{8}, Classes: 3, Heads: 2}
	roundTrip(t, spec, 24)

	ResetIDs()
	rng := rand.New(rand.NewSource(7))
	m := spec.Build(rng)
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalModelScoped(blob, globalIDs)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.SpecLike().Heads; got != 2 {
		t.Errorf("round-tripped head count = %d, want 2", got)
	}

	// A single-head model must serialize without a heads field at all, so
	// its blobs stay byte-identical to the pre-multi-head format.
	single := Spec{Family: "attention", Input: []int{4, 6}, Hidden: []int{8}, Classes: 3}
	ResetIDs()
	sm := single.Build(rand.New(rand.NewSource(7)))
	sblob, err := sm.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sblob[:64], []byte("heads")) {
		t.Error("single-head header mentions heads; legacy blobs would differ")
	}
	sback, err := UnmarshalModelScoped(sblob, globalIDs)
	if err != nil {
		t.Fatal(err)
	}
	if got := sback.SpecLike().Heads; got != 1 {
		t.Errorf("single-head blob decoded with heads=%d, want 1", got)
	}

	// Tampering the header to a non-dividing head count must be rejected.
	bad := append([]byte(nil), blob...)
	hlen := int(binary.BigEndian.Uint32(bad))
	hdr := bad[4 : 4+hlen]
	fixed := bytes.Replace(hdr, []byte(`"heads":2`), []byte(`"heads":5`), 1)
	if len(fixed) != len(hdr) {
		t.Fatal("test setup: header rewrite changed length")
	}
	copy(hdr, fixed)
	if _, err := UnmarshalModelScoped(bad, globalIDs); !errors.Is(err, ErrCorruptModel) {
		t.Errorf("non-dividing head count gave %v, want ErrCorruptModel", err)
	}
}

// convBlob serializes a conv → gap → head model whose header stride,
// kernel shape and bias length are written as given, valid or not.
func convBlob(tb testing.TB, stride int, wShape []int, biasLen int) []byte {
	tb.Helper()
	hdr, err := json.Marshal(persistHeader{
		Version: 1, Input: []int{wShape[1], 6, 6}, Classes: 3,
		Cells: []cellMeta{{Kind: "conv2d", Stride: stride}, {Kind: "gap"}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	out := binary.BigEndian.AppendUint32(nil, uint32(len(hdr)))
	out = append(out, hdr...)
	return append(out, codec.AppendEncode(nil, []*tensor.Tensor{
		tensor.New(wShape...), tensor.New(biasLen),
		tensor.New(wShape[0], 3), tensor.New(3),
	})...)
}

// tamperedConvBlobs are well-formed blobs (header parses, checksum
// holds, tensor count matches) describing a conv cell that cannot
// exist. The first one panicked the loader before it validated.
var tamperedConvBlobs = []struct {
	name    string
	stride  int
	wShape  []int
	biasLen int
}{
	{"stride 3", 3, []int{4, 2, 3, 3}, 4},
	{"negative stride", -1, []int{4, 2, 3, 3}, 4},
	{"non-square kernel", 1, []int{4, 2, 3, 5}, 4},
	{"even kernel", 1, []int{4, 2, 2, 2}, 4},
	{"short bias", 1, []int{4, 2, 3, 3}, 3},
}

func TestPersistRejectsImpossibleConv(t *testing.T) {
	for _, tc := range tamperedConvBlobs {
		m, err := UnmarshalModelScoped(convBlob(t, tc.stride, tc.wShape, tc.biasLen), NewIDGen())
		if !errors.Is(err, ErrCorruptModel) {
			t.Errorf("%s: loaded %v with error %v, want ErrCorruptModel", tc.name, m, err)
		}
	}
	// The same builder with a possible cell loads and runs.
	for _, stride := range []int{0, 1, 2} {
		m, err := UnmarshalModelScoped(convBlob(t, stride, []int{4, 2, 3, 3}, 4), NewIDGen())
		if err != nil {
			t.Fatalf("stride %d: %v", stride, err)
		}
		if got := m.Forward(tensor.New(2, 2*6*6)); got.Shape[0] != 2 || got.Shape[1] != 3 {
			t.Errorf("stride %d: logits shape %v", stride, got.Shape)
		}
	}
}

// hostileCountBlob is a well-formed 64-byte model blob — a dense model
// with no cells — whose FTW1 part claims 2³²−1 tensors under a valid
// checksum. Sizing the tensor list from that count was a fatal
// out-of-memory in every process that loads models.
const hostileCountBlob = "\x00\x00\x00\x30" + `{"version":1,"input":[4],"classes":2,"cells":[]}` +
	"FTW1\xff\xff\xff\xff\x0e\x3b\x50\x3d"

func TestPersistRejectsHostileTensorCount(t *testing.T) {
	if len(hostileCountBlob) != 64 {
		t.Fatalf("test setup: blob is %d bytes", len(hostileCountBlob))
	}
	m, err := UnmarshalModelScoped([]byte(hostileCountBlob), NewIDGen())
	if !errors.Is(err, codec.ErrTruncated) {
		t.Errorf("loaded %v with error %v, want codec.ErrTruncated", m, err)
	}
}

// TestPersistBoundsAttentionByItsWeights: the attention loader sizes a
// fresh cell dim×dim and dim×ff, so a Wq that is not square (or a W1
// that does not start from the model dim) would make it allocate the
// square of what the blob carries.
func TestPersistBoundsAttentionByItsWeights(t *testing.T) {
	hdr, err := json.Marshal(persistHeader{
		Version: 1, Input: []int{2, 4}, Classes: 2,
		Cells: []cellMeta{{Kind: "attention"}, {Kind: "meantokens"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		wq, w1 []int
	}{
		{"tall Wq", []int{64, 1}, []int{64, 4}},
		{"W1 from another dim", []int{4, 4}, []int{1, 64}},
	} {
		ws := []*tensor.Tensor{tensor.New(tc.wq...), tensor.New(4, 4), tensor.New(4, 4), tensor.New(4, 4),
			tensor.New(tc.w1...), tensor.New(4), tensor.New(4, 4), tensor.New(4), tensor.New(4, 2), tensor.New(2)}
		blob := append(append([]byte{0, 0, 0, byte(len(hdr))}, hdr...), codec.AppendEncode(nil, ws)...)
		if m, err := UnmarshalModelScoped(blob, NewIDGen()); !errors.Is(err, ErrCorruptModel) {
			t.Errorf("%s: loaded %v with error %v, want ErrCorruptModel", tc.name, m, err)
		}
	}
}

// brokenChainBlobs are well-formed blobs (header parses, checksum holds,
// tensor count matches, every cell is possible on its own) in which a
// cell does not take what the one before it emits. Each loaded before
// the loader walked the chain, and panicked at its first Forward.
var brokenChainBlobs = []struct {
	name   string
	header string
	shapes [][]int
}{
	{"dense: second cell takes 5, first emits 3",
		`{"version":1,"input":[4],"classes":2,"cells":[{"kind":"dense"},{"kind":"dense"}]}`,
		[][]int{{4, 3}, {3}, {5, 2}, {2}, {2, 2}, {2}}},
	{"conv: second cell takes 3 channels, first emits 4",
		`{"version":1,"input":[2,6,6],"classes":3,"cells":[{"kind":"conv2d"},{"kind":"conv2d"},{"kind":"gap"}]}`,
		[][]int{{4, 2, 3, 3}, {4}, {5, 3, 3, 3}, {5}, {5, 3}, {3}}},
	{"attention: second cell is dim 6 on 4-wide tokens",
		`{"version":1,"input":[2,4],"classes":2,"tokens":2,"cells":[{"kind":"attention"},{"kind":"attention"},{"kind":"meantokens"}]}`,
		[][]int{{4, 4}, {4, 4}, {4, 4}, {4, 4}, {4, 8}, {8}, {8, 4}, {4},
			{6, 6}, {6, 6}, {6, 6}, {6, 6}, {6, 8}, {8}, {8, 6}, {6}, {4, 2}, {2}}},
	{"residual: second cell is dim 6 on a 4-wide stream",
		`{"version":1,"input":[4],"classes":2,"cells":[{"kind":"residual"},{"kind":"residual"}]}`,
		[][]int{{4, 3}, {3}, {3, 4}, {4}, {6, 3}, {3}, {3, 6}, {6}, {4, 2}, {2}}},
	{"first cell against the input",
		`{"version":1,"input":[7],"classes":2,"cells":[{"kind":"dense"}]}`,
		[][]int{{4, 3}, {3}, {3, 2}, {2}}},
	{"head against the last width",
		`{"version":1,"input":[4],"classes":2,"cells":[{"kind":"dense"}]}`,
		[][]int{{4, 3}, {3}, {5, 2}, {2}}},
	{"head against the class count",
		`{"version":1,"input":[4],"classes":9,"cells":[{"kind":"dense"}]}`,
		[][]int{{4, 3}, {3}, {3, 2}, {2}}},
	{"dense bias length",
		`{"version":1,"input":[4],"classes":2,"cells":[{"kind":"dense"}]}`,
		[][]int{{4, 3}, {2}, {3, 2}, {2}}},
	{"residual inner bias length",
		`{"version":1,"input":[4],"classes":2,"cells":[{"kind":"residual"}]}`,
		[][]int{{4, 3}, {2}, {3, 4}, {4}, {4, 2}, {2}}},
	{"attention feed-forward bias length",
		`{"version":1,"input":[2,4],"classes":2,"cells":[{"kind":"attention"},{"kind":"meantokens"}]}`,
		[][]int{{4, 4}, {4, 4}, {4, 4}, {4, 4}, {4, 8}, {5}, {8, 4}, {4}, {4, 2}, {2}}},
	{"head bias length",
		`{"version":1,"input":[4],"classes":2,"cells":[]}`,
		[][]int{{4, 2}, {3}}},
	{"dense stack on an image input",
		`{"version":1,"input":[1,2,2],"classes":2,"cells":[{"kind":"dense"}]}`,
		[][]int{{4, 3}, {3}, {3, 2}, {2}}},
	{"no input shape",
		`{"version":1,"input":[],"classes":2,"cells":[]}`,
		[][]int{{4, 2}, {2}}},
	{"zero-sized input",
		`{"version":1,"input":[2,0,6],"classes":3,"cells":[{"kind":"conv2d"},{"kind":"gap"}]}`,
		[][]int{{4, 2, 3, 3}, {4}, {4, 3}, {3}}},
}

// hugeInputBlobs are well-formed blobs in which every tensor fits and
// the header claims an input no weight bounds: a conv stack's H×W, an
// attention stack's token count. Each loaded, and the product of its
// input shape overflowed LoadModel's feature count.
var hugeInputBlobs = []struct {
	name   string
	header string
	shapes [][]int
}{
	{"conv: 2³¹×2³¹ pixels",
		`{"version":1,"input":[2,2147483648,2147483648],"classes":3,"cells":[{"kind":"conv2d"},{"kind":"gap"}]}`,
		[][]int{{4, 2, 3, 3}, {4}, {4, 3}, {3}}},
	{"attention: 2⁴⁰ tokens",
		`{"version":1,"input":[1099511627776,4],"classes":2,"cells":[{"kind":"attention"},{"kind":"meantokens"}]}`,
		[][]int{{4, 4}, {4, 4}, {4, 4}, {4, 4}, {4, 8}, {8}, {8, 4}, {4}, {4, 2}, {2}}},
}

// headerBlob serializes header over zero weights of the given shapes.
func headerBlob(header string, shapes [][]int) []byte {
	ws := make([]*tensor.Tensor, len(shapes))
	for k, shape := range shapes {
		ws[k] = tensor.New(shape...)
	}
	out := binary.BigEndian.AppendUint32(nil, uint32(len(header)))
	return append(append(out, header...), codec.AppendEncode(nil, ws)...)
}

func TestPersistRejectsBrokenChains(t *testing.T) {
	for _, tc := range brokenChainBlobs {
		if m, err := UnmarshalModelScoped(headerBlob(tc.header, tc.shapes), NewIDGen()); !errors.Is(err, ErrCorruptModel) {
			t.Errorf("%s: loaded %v with error %v, want ErrCorruptModel", tc.name, m, err)
		}
	}
}

func TestPersistBoundsInputExtents(t *testing.T) {
	for _, tc := range hugeInputBlobs {
		if m, err := UnmarshalModelScoped(headerBlob(tc.header, tc.shapes), NewIDGen()); !errors.Is(err, ErrCorruptModel) {
			t.Errorf("%s: loaded %v with error %v, want ErrCorruptModel", tc.name, m, err)
		}
	}
	// The largest input the bound admits still loads.
	edge := `{"version":1,"input":[1,64,64],"classes":3,"cells":[{"kind":"conv2d"},{"kind":"gap"}]}`
	if _, err := UnmarshalModelScoped(headerBlob(edge, [][]int{{4, 1, 3, 3}, {4}, {4, 3}, {3}}), NewIDGen()); err != nil {
		t.Errorf("a 64×64 conv input: %v", err)
	}
}

// resignWeights returns b with the checksum of its FTW1 part recomputed,
// so a mutated blob reaches the weight parser and the cell loaders
// instead of dying at codec.ErrChecksum.
func resignWeights(b []byte) []byte {
	if len(b) < 8 {
		return b
	}
	at := 4 + int(uint32(b[0])<<24|uint32(b[1])<<16|uint32(b[2])<<8|uint32(b[3]))
	if at < 4 || at > len(b)-4 {
		return b
	}
	return wire.Seal(bytes.Clone(b[:len(b)-4]), at)
}

// FuzzUnmarshalModel: the loader never panics, whatever the bytes — as
// given, or with the weights re-signed so that they pass the checksum —
// and a blob it accepts describes a model that maps one sample to
// Classes logits without panicking, and marshals again to a blob the
// loader accepts and reproduces.
func FuzzUnmarshalModel(f *testing.F) {
	specs := append(cowSpecs(), Spec{Family: "attention", Input: []int{4, 8}, Hidden: []int{8}, Classes: 4, Heads: 4})
	for _, spec := range specs {
		blob, err := spec.BuildScoped(rand.New(rand.NewSource(8)), NewIDGen()).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	for _, tc := range tamperedConvBlobs {
		f.Add(convBlob(f, tc.stride, tc.wShape, tc.biasLen))
	}
	f.Add([]byte(hostileCountBlob))
	for _, tc := range append(brokenChainBlobs, hugeInputBlobs...) {
		f.Add(headerBlob(tc.header, tc.shapes))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, b := range [][]byte{in, resignWeights(in)} {
			m, err := UnmarshalModelScoped(b, NewIDGen())
			if err != nil {
				continue
			}
			features := 1
			for _, n := range m.InputShape {
				features *= n
			}
			if shape := m.Forward(tensor.New(1, features)).Shape; len(shape) != 2 || shape[0] != 1 || shape[1] != m.Classes {
				t.Fatalf("one sample through a loaded model gave logits %v, want [1 %d]", shape, m.Classes)
			}
			again, err := m.MarshalBinary()
			if err != nil {
				t.Fatalf("a loaded model does not marshal: %v", err)
			}
			m2, err := UnmarshalModelScoped(again, NewIDGen())
			if err != nil {
				t.Fatalf("a re-marshalled model does not load: %v", err)
			}
			if third, err := m2.MarshalBinary(); err != nil || !bytes.Equal(again, third) {
				t.Fatalf("marshal is not a fixed point after one load (err %v)", err)
			}
		}
	})
}
