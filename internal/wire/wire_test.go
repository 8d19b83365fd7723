package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
)

var (
	errMagic     = errors.New("test: magic")
	errChecksum  = errors.New("test: checksum")
	errTruncated = errors.New("test: truncated")
	errCorrupt   = errors.New("test: corrupt")
	testErrs     = Errs{Magic: errMagic, Checksum: errChecksum, Truncated: errTruncated, Corrupt: errCorrupt}
)

// sink uses every Coder method and both generic helpers, nested the way
// fl.Checkpoint nests them.
type sink struct {
	A     uint8
	B     uint16
	C     uint32
	D     uint64
	E     int64
	F     int
	G     float64
	H     bool
	Raw   [3]byte
	Bytes []byte
	Str   string
	F64s  []float64
	Bools []bool
	Items []item
	M     map[int]float64
	S     map[int64][]float64
}

type item struct {
	ID   int
	Tags []string
	Sub  map[int]int
}

func (s *sink) walk(c Coder) {
	c.U8(&s.A)
	c.U16(&s.B)
	c.U32(&s.C)
	c.U64(&s.D)
	c.I64(&s.E)
	c.Int(&s.F)
	c.F64(&s.G)
	c.Bool(&s.H)
	c.Raw(s.Raw[:])
	c.Bytes(&s.Bytes)
	c.Str(&s.Str)
	c.F64s(&s.F64s)
	Slice(c, &s.Bools, 1, c.Bool)
	Slice(c, &s.Items, 13, func(it *item) {
		c.Int(&it.ID)
		Slice(c, &it.Tags, 4, c.Str)
		Map(c, &it.Sub, 8, c.Int)
	})
	Map(c, &s.M, 8, c.F64)
	SortedMap(c, &s.S, 4, c.F64s)
}

func (s *sink) encode() []byte {
	e := Enc{B: []byte("SINK")}
	s.walk(Encoding(&e))
	return Seal(e.B, 0)
}

func decodeSink(b []byte) (*sink, error) {
	d, err := Open(b, "SINK", &testErrs)
	if err != nil {
		return nil, err
	}
	s := &sink{}
	s.walk(Decoding(&d))
	return s, d.Done()
}

func filledSink() *sink {
	return &sink{
		A: 0xa1, B: 0xb1b2, C: 0xc1c2c3c4, D: 0xd1d2d3d4d5d6d7d8, E: -2, F: -3,
		G: math.Float64frombits(0x7ff8000000000abc), H: true, Raw: [3]byte{'r', 'a', 'w'},
		Bytes: []byte{1, 2}, Str: "hé", F64s: []float64{0.5, 0}, Bools: []bool{true, false},
		Items: []item{
			{ID: 1, Tags: []string{"a", ""}, Sub: map[int]int{5: 50, -1: 10}},
			{ID: 2, Sub: map[int]int{}},
			{ID: 3},
		},
		M: map[int]float64{7: 0.25, 3: 1},
		S: map[int64][]float64{1 << 40: {1}, 2: nil},
	}
}

// TestConventions pins the package comment byte for byte on one value:
// widths, byte order, two's complement, IEEE bits, the length prefix,
// the presence byte, sorted keys and the envelope.
func TestConventions(t *testing.T) {
	const want = "53494e4b" + // magic
		"a1" + "b1b2" + "c1c2c3c4" + "d1d2d3d4d5d6d7d8" +
		"fffffffffffffffe" + "fffffffffffffffd" + "7ff8000000000abc" + "01" + "726177" +
		"00000002" + "0102" + "00000003" + "68c3a9" +
		"00000002" + "3fe0000000000000" + "0000000000000000" + "00000002" + "0100" +
		"00000003" + // three items
		"0000000000000001" + "00000002" + "00000001" + "61" + "00000000" +
		"01" + "00000002" + "ffffffffffffffff" + "000000000000000a" + "0000000000000005" + "0000000000000032" +
		"0000000000000002" + "00000000" + "01" + "00000000" + // empty, present map
		"0000000000000003" + "00000000" + "00" + // nil map
		"01" + "00000002" + "0000000000000003" + "3ff0000000000000" + "0000000000000007" + "3fd0000000000000" +
		"00000002" + "0000000000000002" + "00000000" + "0000010000000000" + "00000001" + "3ff0000000000000" +
		"f91d1a01" // CRC-32 of all of the above
	got := filledSink().encode()
	if hex.EncodeToString(got) != want {
		t.Fatalf("encoding moved:\n got %x\nwant %s", got, want)
	}
	back, err := decodeSink(got)
	if err != nil {
		t.Fatal(err)
	}
	if re := back.encode(); !bytes.Equal(re, got) {
		t.Fatalf("decode → encode is not the identity:\n got %x", re)
	}
	// Zero lengths decode to nil, a present empty map to an empty map.
	if back.Items[1].Tags != nil || back.Items[1].Sub == nil || back.Items[2].Sub != nil || back.S[2] != nil {
		t.Errorf("nil-ness not preserved: %+v %+v", back.Items, back.S)
	}
	back.G = 0 // a NaN defeats DeepEqual; the bytes above cover it
	orig := filledSink()
	orig.G = 0
	if !reflect.DeepEqual(back, orig) {
		t.Errorf("decoded\n%+v\nwant\n%+v", back, orig)
	}
}

// TestCountingMatchesEncoding: a counting pass over a layout measures
// exactly the bytes the encoding pass appends, and appends none.
func TestCountingMatchesEncoding(t *testing.T) {
	s := filledSink()
	n := Counting()
	s.walk(Encoding(&n))
	if want := len(s.encode()) - len("SINK") - 4; n.N != want || n.B != nil {
		t.Errorf("counted %d bytes (buffer %v), the encoding appends %d", n.N, n.B, want)
	}
}

// TestSliceIn: SliceIn writes Slice's bytes, and decodes a list of lists
// into windows of one arena that an append to one window cannot spill
// into the next.
func TestSliceIn(t *testing.T) {
	lists := [][]int{{1, 2}, nil, {3}, {4, 5, 6}}
	walk := func(c Coder, ls *[][]int, arena *[]int) {
		Slice(c, ls, 4, func(l *[]int) {
			if arena == nil {
				Slice(c, l, 8, c.Int)
			} else {
				SliceIn(c, l, arena, 8, c.Int)
			}
		})
	}
	var plain, in Enc
	walk(Encoding(&plain), &lists, nil)
	walk(Encoding(&in), &lists, new([]int))
	if !bytes.Equal(plain.B, in.B) {
		t.Fatalf("SliceIn encodes %x, Slice %x", in.B, plain.B)
	}
	d := NewDec(in.B, &testErrs)
	var back [][]int
	var arena []int
	walk(Decoding(&d), &back, &arena)
	if err := d.Done(); err != nil || !reflect.DeepEqual(back, lists) || len(arena) != 6 {
		t.Fatalf("decoded %v into an arena of %d (err %v), want %v in 6", back, len(arena), err, lists)
	}
	_ = append(back[0], 99)
	if back[2][0] != 3 {
		t.Error("an append to one decoded list overwrote the next")
	}
}

// at returns a copy of the sealed blob b with put written at off and the
// checksum recomputed.
func at(b []byte, off int, put string) []byte {
	out := bytes.Clone(b[:len(b)-4])
	copy(out[off:], put)
	return Seal(out, 0)
}

// TestErrorContract: each way a blob can be wrong comes back as the
// caller's sentinel for it, and the checks run in the documented order.
func TestErrorContract(t *testing.T) {
	good := filledSink().encode()
	empty := (&sink{}).encode()
	// In the empty sink every list is a bare count: A..Raw take 43 bytes
	// after the magic, then Bytes, Str, F64s, Bools, Items, M, S.
	const bytesAt, itemsAt, mAt = 4 + 43, 4 + 43 + 16, 4 + 43 + 20
	for _, tc := range []struct {
		name string
		blob []byte
		want error
	}{
		{"nil", nil, errTruncated},
		{"magic and checksum only", Seal([]byte("SINK"), 0), errTruncated},
		{"foreign blob with a valid checksum", Seal([]byte("KNISxxxxxxxx"), 0), errMagic},
		{"flipped bit", append(bytes.Clone(good[:len(good)-1]), good[len(good)-1]^1), errChecksum},
		{"cut short, re-signed", Seal(bytes.Clone(good[:40]), 0), errTruncated},
		{"trailing byte, re-signed", Seal(append(bytes.Clone(good[:len(good)-4]), 0), 0), errCorrupt},
		{"bool byte 2", at(good, 4+1+2+4+8+8+8+8, "\x02"), errCorrupt},
		{"byte count past the end", at(empty, bytesAt, "\xff\xff\xff\xff"), errTruncated},
		{"item count past the end", at(empty, itemsAt, "\x00\x00\x00\x02"), errTruncated},
		{"map presence byte 2", at(empty, mAt, "\x02"), errCorrupt},
	} {
		if _, err := decodeSink(tc.blob); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
	// Keys out of order: swap the two entries of M in the good blob.
	i := bytes.Index(good, unhex("0000000000000003"+"3ff0000000000000"+"0000000000000007"))
	swapped := at(good, i, string(unhex("0000000000000007"+"3fd0000000000000"+"0000000000000003"+"3ff0000000000000")))
	if _, err := decodeSink(swapped); !errors.Is(err, errCorrupt) {
		t.Errorf("descending map keys: %v, want the corrupt sentinel", err)
	}
	// Truncation is reported bare, and the first failure sticks.
	d := NewDec([]byte{0, 0, 0, 9, 1}, &testErrs)
	if n := d.Count(1); n != 0 || d.Err() != errTruncated {
		t.Errorf("Count past the end = %d, err %v", n, d.Err())
	}
	if d.U8() != 0 || d.Rest() != nil || d.Done() != errTruncated {
		t.Errorf("reads after a failure must return zero and keep the first error, got %v", d.Err())
	}
}

func unhex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// maxBlowup is the allocation bound the package comment states: one
// allocation of a decode never asks for more than this many bytes per
// input byte. sink nests lists three deep, and a decode that fails has
// allocated at most one list per level, hence the 3 below.
const maxBlowup = 8

// FuzzDec: whatever the bytes — as given, or re-signed so that they get
// past the checksum — a decode never panics, never allocates more than
// 3 × maxBlowup × len(input) (+ 16 KiB of slack for the runtime's own
// bookkeeping), and anything it accepts re-encodes to the same bytes.
func FuzzDec(f *testing.F) {
	good := filledSink().encode()
	empty := (&sink{}).encode()
	f.Add(good)
	f.Add(empty)
	f.Add(good[:len(good)/2])
	for off := 4 + 43; off < len(empty)-4; off += 4 {
		f.Add(at(empty, off, "\xff\xff\xff\xff")) // each count in turn claims 2³²−1 elements
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		signed := in
		if len(in) >= 4 {
			signed = Seal(bytes.Clone(in[:len(in)-4]), 0)
		}
		for _, b := range [][]byte{in, signed} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := decodeSink(b)
			runtime.ReadMemStats(&after)
			if grew, most := after.TotalAlloc-before.TotalAlloc, uint64(3*maxBlowup*len(b)+16<<10); grew > most {
				t.Fatalf("decoding %d bytes allocated %d, bound %d", len(b), grew, most)
			}
			if err != nil {
				continue
			}
			if re := s.encode(); !bytes.Equal(re, b) {
				t.Fatalf("decode accepted a non-canonical blob: %d bytes in, %d out", len(b), len(re))
			}
		}
	})
}
