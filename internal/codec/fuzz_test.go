package codec

import (
	"bytes"
	"math/rand"
	"testing"

	"fedtrans/internal/tensor"
	"fedtrans/internal/wire"
)

// resign returns b with its last four bytes replaced by the checksum of
// the rest, so a mutated input reaches the parser instead of dying at
// ErrChecksum.
func resign(b []byte) []byte {
	if len(b) < 4 {
		return b
	}
	return wire.Seal(bytes.Clone(b[:len(b)-4]), 0)
}

// hostileCount is the 12-byte blob that killed the process before
// counts were bounded: magic, 2³²−1 tensors, a valid checksum.
var hostileCount = resign([]byte("FTW1\xff\xff\xff\xff----"))

// FuzzDecode hardens the wire-format parser: no input — as given, or
// re-signed so that it passes the checksum — may panic or over-allocate
// past the shape bounds, and any blob that decodes must re-encode
// byte-identically (the format is canonical), pinning the
// bounds/magic/CRC ordering fixes against regression.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	// Seed corpus: valid encodings of representative tensor lists...
	seeds := [][]*tensor.Tensor{
		{tensor.New(1)},
		{tensor.New(3, 4), tensor.New(4)},
		{tensor.New(2, 3, 3, 3), tensor.New(2), tensor.New(6, 5)},
	}
	for _, ts := range seeds {
		for _, t := range ts {
			t.RandNormal(rng, 1)
		}
		f.Add(AppendEncode(nil, ts))
	}
	// ...plus targeted corruptions: truncation, bad magic, bad CRC, and a
	// hostile dim re-signed with a valid checksum.
	valid := AppendEncode(nil, seeds[1])
	f.Add(valid[:7])
	bad := append([]byte(nil), valid...)
	bad[0] = 'X'
	f.Add(bad)
	bad = append([]byte(nil), valid...)
	bad[len(bad)-1] ^= 0xFF
	f.Add(bad)
	hostile := append([]byte(nil), valid...)
	hostile[12] = 0x80 // first dim absurd
	f.Add(resign(hostile))
	f.Add(hostileCount)

	f.Fuzz(func(t *testing.T, blob []byte) {
		for _, b := range [][]byte{blob, resign(blob)} {
			ts, err := Decode(b)
			if err != nil {
				continue
			}
			if re := AppendEncode(nil, ts); !bytes.Equal(re, b) {
				t.Fatalf("decode/encode not canonical: %d in, %d out", len(b), len(re))
			}
		}
	})
}

// TestDecodeBoundsTensorCount: a count the blob cannot hold is refused
// before anything is allocated for it. The 12-byte blob used to ask the
// runtime for 2³²−1 tensor pointers — a fatal out-of-memory, not an
// error — from Decode and everything built on it.
func TestDecodeBoundsTensorCount(t *testing.T) {
	if _, err := Decode(hostileCount); err != ErrTruncated {
		t.Errorf("Decode of the hostile count: %v, want ErrTruncated", err)
	}
	if err := DecodeInto(nil, hostileCount); err != ErrTruncated {
		t.Errorf("DecodeInto of the hostile count: %v, want ErrTruncated", err)
	}
}
