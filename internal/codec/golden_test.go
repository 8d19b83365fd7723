package codec

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"

	"fedtrans/internal/tensor"
)

// goldenFTW1 is the FTW1 encoding of goldenTensors, byte for byte:
// magic, count 3, then rank | dims | big-endian float32 bits per
// tensor, then the CRC-32 of everything before it.
const goldenFTW1 = "46545731" + "00000003" +
	"00000001" + "00000003" + "3f800000c02000007fc00abc" +
	"00000002" + "0000000200000002" + "3f000000800000007f80000040400000" +
	"00000004" + "00000001000000020000000100000002" + "bf8000003e8000003a83126f477fe000" +
	"463073af"

// goldenTensors are rank-1, rank-2 and rank-4 tensors filled from
// literals (a NaN payload, -0 and +Inf among them), so the bytes do not
// depend on an rng or on the host's float formatting.
func goldenTensors() []*tensor.Tensor {
	a := tensor.New(3)
	copy(a.Data, []tensor.Float{1, -2.5, math.Float32frombits(0x7fc00abc)})
	b := tensor.New(2, 2)
	copy(b.Data, []tensor.Float{0.5, tensor.Float(math.Copysign(0, -1)), tensor.Float(math.Inf(1)), 3})
	c := tensor.New(1, 2, 1, 2)
	copy(c.Data, []tensor.Float{-1, 0.25, 1e-3, 65504})
	return []*tensor.Tensor{a, b, c}
}

// TestGoldenFTW1 pins the weight format absolutely: the literal tensors
// encode to the committed bytes, and the committed bytes decode (both
// ways) and re-encode to themselves.
func TestGoldenFTW1(t *testing.T) {
	want, err := hex.DecodeString(goldenFTW1)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendEncode(nil, goldenTensors()); !bytes.Equal(got, want) {
		t.Fatalf("FTW1 encoding moved:\n got %x\nwant %x", got, want)
	}
	ts, err := Decode(want)
	if err != nil {
		t.Fatalf("golden blob does not decode: %v", err)
	}
	if re := AppendEncode(nil, ts); !bytes.Equal(re, want) {
		t.Fatalf("decode → encode of the golden blob is not the identity: %x", re)
	}
	into := goldenTensors()
	for _, x := range into {
		x.Zero()
	}
	if err := DecodeInto(into, want); err != nil {
		t.Fatalf("golden blob does not decode in place: %v", err)
	}
	if re := AppendEncode(nil, into); !bytes.Equal(re, want) {
		t.Fatalf("DecodeInto → encode of the golden blob is not the identity: %x", re)
	}
}
