package codec

import (
	"errors"
	"testing"

	"fedtrans/internal/tensor"
)

func intoFixture() []*tensor.Tensor {
	a := tensor.New(3, 4)
	b := tensor.New(2, 2, 2)
	c := tensor.New(5)
	for i := range a.Data {
		a.Data[i] = tensor.Float(i) * 0.25
	}
	for i := range b.Data {
		b.Data[i] = -tensor.Float(i) * 1.5
	}
	for i := range c.Data {
		c.Data[i] = tensor.Float(i*i) - 7
	}
	return []*tensor.Tensor{a, b, c}
}

func cloneShapes(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = tensor.New(t.Shape...)
	}
	return out
}

// TestDecodeIntoParity pins DecodeInto against Decode: same blob, same
// reconstructed values, into preallocated destination buffers.
func TestDecodeIntoParity(t *testing.T) {
	src := intoFixture()
	blob := AppendEncode(nil, src)
	want, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	dst := cloneShapes(src)
	if err := DecodeInto(dst, blob); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for j := range want[i].Data {
			if dst[i].Data[j] != want[i].Data[j] {
				t.Fatalf("tensor %d elem %d: DecodeInto %v, Decode %v", i, j, dst[i].Data[j], want[i].Data[j])
			}
		}
	}
}

// TestAppendEncodeParity pins that the bytes AppendEncode appends do not
// depend on what dst already holds: a prefix, or spare capacity.
func TestAppendEncodeParity(t *testing.T) {
	src := intoFixture()
	want := AppendEncode(nil, src)
	prefixed := AppendEncode([]byte("head"), src)
	if string(prefixed[:4]) != "head" || string(prefixed[4:]) != string(want) {
		t.Fatal("AppendEncode after a prefix corrupted the encoding")
	}
	if roomy := AppendEncode(make([]byte, 0, 2*len(want)), src); string(roomy) != string(want) {
		t.Fatal("AppendEncode into spare capacity differs")
	}
}

// TestDecodeIntoRejectsMismatch covers every shape-disagreement path:
// wrong tensor count, wrong rank, wrong dim — all typed ErrDstMismatch —
// plus the corruption errors shared with Decode.
func TestDecodeIntoRejectsMismatch(t *testing.T) {
	src := intoFixture()
	blob := AppendEncode(nil, src)

	short := cloneShapes(src)[:2]
	if err := DecodeInto(short, blob); !errors.Is(err, ErrDstMismatch) {
		t.Fatalf("tensor-count mismatch: got %v, want ErrDstMismatch", err)
	}
	wrongRank := cloneShapes(src)
	wrongRank[0] = tensor.New(12)
	if err := DecodeInto(wrongRank, blob); !errors.Is(err, ErrDstMismatch) {
		t.Fatalf("rank mismatch: got %v, want ErrDstMismatch", err)
	}
	wrongDim := cloneShapes(src)
	wrongDim[1] = tensor.New(2, 2, 3)
	if err := DecodeInto(wrongDim, blob); !errors.Is(err, ErrDstMismatch) {
		t.Fatalf("dim mismatch: got %v, want ErrDstMismatch", err)
	}

	dst := cloneShapes(src)
	if err := DecodeInto(dst, blob[:8]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated blob: got %v, want ErrTruncated", err)
	}
	corrupt := append([]byte(nil), blob...)
	corrupt[10] ^= 0xff
	if err := DecodeInto(dst, corrupt); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt blob: got %v, want ErrChecksum", err)
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if err := DecodeInto(dst, bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v, want ErrBadMagic", err)
	}
}

// TestDecodeIntoAllocs pins the point of DecodeInto: steady-state
// decoding into reused buffers allocates nothing.
func TestDecodeIntoAllocs(t *testing.T) {
	src := intoFixture()
	blob := AppendEncode(nil, src)
	dst := cloneShapes(src)
	if err := DecodeInto(dst, blob); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := DecodeInto(dst, blob); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeInto allocates %.1f times per call, want 0", allocs)
	}
}

// TestAppendEncodeAllocs pins that re-encoding through a warm buffer
// allocates nothing.
func TestAppendEncodeAllocs(t *testing.T) {
	src := intoFixture()
	buf := AppendEncode(nil, src)
	allocs := testing.AllocsPerRun(50, func() {
		buf = AppendEncode(buf[:0], src)
	})
	if allocs != 0 {
		t.Errorf("AppendEncode allocates %.1f times per call on a warm buffer, want 0", allocs)
	}
}
