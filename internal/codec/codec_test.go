package codec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fedtrans/internal/tensor"
	"fedtrans/internal/wire"
)

func randomTensors(seed int64) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(5)
	out := make([]*tensor.Tensor, n)
	for i := range out {
		rank := 1 + rng.Intn(3)
		shape := make([]int, rank)
		for r := range shape {
			shape[r] = 1 + rng.Intn(6)
		}
		t := tensor.New(shape...)
		t.RandNormal(rng, 1)
		out[i] = t
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		ts := randomTensors(seed)
		blob := AppendEncode(nil, ts)
		back, err := Decode(blob)
		if err != nil {
			return false
		}
		if len(back) != len(ts) {
			return false
		}
		for i := range ts {
			// float32 narrowing tolerance.
			if !tensor.Equal(ts[i], back[i], 1e-6*(1+ts[i].MaxAbs())) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEncodedSizeExact(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		ts := randomTensors(seed)
		if got, want := len(AppendEncode(nil, ts)), EncodedSize(ts); got != want {
			t.Fatalf("seed %d: encoded %d bytes, EncodedSize says %d", seed, got, want)
		}
	}
}

func TestEncodedSizeMatchesPayload(t *testing.T) {
	// Framing overhead on a realistic weight list must stay small
	// relative to the float32 payload (the basis of the repository's
	// network accounting).
	ws := []*tensor.Tensor{
		tensor.New(8, 6), tensor.New(6),
		tensor.New(6, 6), tensor.New(6),
		tensor.New(6, 4), tensor.New(4),
	}
	payload := 0
	for _, w := range ws {
		payload += 4 * w.Len()
	}
	wire := EncodedSize(ws)
	if wire < payload {
		t.Errorf("wire size %d below payload size %d", wire, payload)
	}
	if wire-payload > payload/4+64 {
		t.Errorf("framing overhead %d unreasonably large", wire-payload)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	ts := randomTensors(3)
	blob := AppendEncode(nil, ts)

	flip := append([]byte(nil), blob...)
	flip[10] ^= 0xFF
	if _, err := Decode(flip); err != ErrChecksum {
		t.Errorf("bit flip: err = %v, want ErrChecksum", err)
	}

	if _, err := Decode(blob[:8]); err != ErrTruncated {
		t.Errorf("truncated: err = %v, want ErrTruncated", err)
	}

	if _, err := Decode(nil); err != ErrTruncated {
		t.Errorf("nil: err = %v, want ErrTruncated", err)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	ts := randomTensors(4)
	blob := AppendEncode(nil, ts)
	blob[0] = 'X'
	// Fix the checksum so magic is the failing check.
	body := blob[:len(blob)-4]
	fixed := append(append([]byte(nil), body...), 0, 0, 0, 0)
	crc := crc32ChecksumIEEE(body)
	fixed[len(fixed)-4] = byte(crc >> 24)
	fixed[len(fixed)-3] = byte(crc >> 16)
	fixed[len(fixed)-2] = byte(crc >> 8)
	fixed[len(fixed)-1] = byte(crc)
	if _, err := Decode(fixed); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeRejectsHugeShapes(t *testing.T) {
	// Handcraft a blob with an absurd dim to check the bounds guard.
	huge := tensor.New(1)
	blob := AppendEncode(nil, []*tensor.Tensor{huge})
	// dims live at offset 4(magic)+4(count)+4(rank) = 12.
	blob[12], blob[13], blob[14], blob[15] = 0xFF, 0xFF, 0xFF, 0xFF
	body := blob[:len(blob)-4]
	crc := crc32ChecksumIEEE(body)
	blob[len(blob)-4] = byte(crc >> 24)
	blob[len(blob)-3] = byte(crc >> 16)
	blob[len(blob)-2] = byte(crc >> 8)
	blob[len(blob)-1] = byte(crc)
	if _, err := Decode(blob); err == nil {
		t.Error("expected shape-bounds error")
	}
}

func TestWeightListSurvivesWire(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ws := []*tensor.Tensor{tensor.New(8, 6), tensor.New(6), tensor.New(6, 4)}
	for _, w := range ws {
		w.RandNormal(rng, 1)
	}
	blob := AppendEncode(nil, ws)
	back, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		if !tensor.Equal(ws[i], back[i], 1e-6) {
			t.Errorf("tensor %d changed materially after wire round trip", i)
		}
	}
}

// crc32ChecksumIEEE is a test-local alias to avoid importing hash/crc32 in
// multiple places.
func crc32ChecksumIEEE(b []byte) uint32 { return wire.Checksum(b) }

// TestDecodeRandomBlobReportsBadMagic is the regression test for the
// magic-before-checksum ordering: an arbitrary non-FedTrans blob that
// happens to carry a self-consistent CRC must be rejected as ErrBadMagic,
// not misreported as a checksum failure.
func TestDecodeRandomBlobReportsBadMagic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	body := make([]byte, 64)
	for i := range body {
		body[i] = byte(rng.Intn(256))
	}
	body[0] = 'X' // ensure the magic really is wrong
	crc := wire.Checksum(body)
	blob := append(body,
		byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc))
	if _, err := Decode(blob); err != ErrBadMagic {
		t.Errorf("random self-consistent blob: err = %v, want ErrBadMagic", err)
	}
}
