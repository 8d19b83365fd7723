// Package codec implements the wire format used to ship model weights
// between the coordinator and clients. Weights travel as float32 (the
// convention of real FL deployments, and the basis of the repository's
// network-cost accounting), framed with tensor shapes and a checksum so
// corrupted transfers are detected rather than silently trained on.
// Since the compute backend stores tensors as float32 (tensor.Float),
// encoding and decoding move raw element bits with no per-element
// narrowing or widening — the wire format is lossless.
//
// Layout (big-endian):
//
//	magic   uint32  'F','T','W','1'
//	count   uint32  number of tensors
//	per tensor:
//	  rank  uint32
//	  dims  rank × uint32
//	  data  prod(dims) × float32
//	crc32   uint32  IEEE checksum of everything above
//
// The coordinator's resumable checkpoints use a sibling frame in the
// same style (magic "FTCP", version, big-endian body, trailing CRC-32)
// that embeds these weight blobs per model; its field-by-field layout
// is documented on fl.Checkpoint in internal/fl/checkpoint.go. The
// networked coordinator (internal/netcoord) ships these same FTW1
// blobs as payloads of its length-prefixed connection protocol (magic
// "FTNC"); the framing, handshake, and versioning are documented in
// that package.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"fedtrans/internal/tensor"
)

var magic = [4]byte{'F', 'T', 'W', '1'}

// Errors returned by Decode and DecodeInto.
var (
	ErrBadMagic    = errors.New("codec: bad magic (not a FedTrans weight blob)")
	ErrTruncated   = errors.New("codec: truncated blob")
	ErrChecksum    = errors.New("codec: checksum mismatch")
	ErrShapeBounds = errors.New("codec: unreasonable tensor shape")
	// ErrDstMismatch reports a DecodeInto blob whose tensor count or
	// shapes do not match the destination buffers — on the wire this
	// means the sender and receiver disagree about the model.
	ErrDstMismatch = errors.New("codec: blob does not match destination tensors")
)

// maxDim guards against hostile or corrupted size fields.
const maxDim = 1 << 24

// EncodedSize returns the exact byte size Encode will produce for the
// given tensors.
func EncodedSize(ts []*tensor.Tensor) int {
	n := 4 + 4 // magic + count
	for _, t := range ts {
		n += 4 + 4*len(t.Shape) + 4*t.Len()
	}
	return n + 4 // crc
}

// Encode serializes the tensors. The backend element type is already
// float32, so the data section is a straight bit copy of each tensor's
// buffer (big-endian framed).
func Encode(ts []*tensor.Tensor) []byte {
	return AppendEncode(make([]byte, 0, EncodedSize(ts)), ts)
}

// AppendEncode appends the encoded form of the tensors to dst and
// returns the extended slice — the amortized-zero-allocation form of
// Encode for hot paths that ship many blobs through one reused buffer
// (the networked coordinator re-encodes the current weights for every
// dispatch). The appended bytes are identical to Encode's output.
func AppendEncode(dst []byte, ts []*tensor.Tensor) []byte {
	if n := len(dst) + EncodedSize(ts); cap(dst) < n {
		grown := make([]byte, len(dst), n)
		copy(grown, dst)
		dst = grown
	}
	start := len(dst)
	dst = append(dst, magic[:]...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ts)))
	for _, t := range ts {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(t.Shape)))
		for _, d := range t.Shape {
			dst = binary.BigEndian.AppendUint32(dst, uint32(d))
		}
		for _, v := range t.Data {
			dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(v))
		}
	}
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.BigEndian.AppendUint32(dst, crc)
}

// Decode parses a weight blob back into tensors. The magic is verified
// before the checksum so arbitrary non-FedTrans blobs report ErrBadMagic
// rather than ErrChecksum.
func Decode(blob []byte) ([]*tensor.Tensor, error) {
	if len(blob) < 12 {
		return nil, ErrTruncated
	}
	if blob[0] != magic[0] || blob[1] != magic[1] || blob[2] != magic[2] || blob[3] != magic[3] {
		return nil, ErrBadMagic
	}
	body, crcBytes := blob[:len(blob)-4], blob[len(blob)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(crcBytes) {
		return nil, ErrChecksum
	}
	off := 4
	readU32 := func() (uint32, error) {
		if off+4 > len(body) {
			return 0, ErrTruncated
		}
		v := binary.BigEndian.Uint32(body[off : off+4])
		off += 4
		return v, nil
	}
	count, err := readU32()
	if err != nil {
		return nil, err
	}
	out := make([]*tensor.Tensor, 0, count)
	for i := uint32(0); i < count; i++ {
		rank, err := readU32()
		if err != nil {
			return nil, err
		}
		if rank == 0 || rank > 8 {
			return nil, fmt.Errorf("%w: rank %d", ErrShapeBounds, rank)
		}
		shape := make([]int, rank)
		elems := 1
		for r := range shape {
			d, err := readU32()
			if err != nil {
				return nil, err
			}
			if d == 0 || d > maxDim {
				return nil, fmt.Errorf("%w: dim %d", ErrShapeBounds, d)
			}
			shape[r] = int(d)
			elems *= int(d)
			if elems > maxDim {
				return nil, fmt.Errorf("%w: %d elements", ErrShapeBounds, elems)
			}
		}
		if off+4*elems > len(body) {
			return nil, ErrTruncated
		}
		t := tensor.New(shape...)
		for j := 0; j < elems; j++ {
			t.Data[j] = math.Float32frombits(binary.BigEndian.Uint32(body[off:]))
			off += 4
		}
		out = append(out, t)
	}
	if off != len(body) {
		return nil, fmt.Errorf("codec: %d trailing bytes", len(body)-off)
	}
	return out, nil
}

// DecodeInto parses a weight blob into the caller's existing tensors —
// the zero-allocation form of Decode for the agent/serving hot path,
// where every received blob is shaped like a model the receiver already
// holds. The blob's tensor count and per-tensor shapes must match dst
// exactly (ErrDstMismatch otherwise); magic, checksum, and truncation
// are validated exactly as in Decode, and dst is written in place
// (buffers detach from any COW sharing first, without copying the old
// contents). On error dst may be partially overwritten.
func DecodeInto(dst []*tensor.Tensor, blob []byte) error {
	if len(blob) < 12 {
		return ErrTruncated
	}
	if blob[0] != magic[0] || blob[1] != magic[1] || blob[2] != magic[2] || blob[3] != magic[3] {
		return ErrBadMagic
	}
	body, crcBytes := blob[:len(blob)-4], blob[len(blob)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(crcBytes) {
		return ErrChecksum
	}
	off := 4
	readU32 := func() (uint32, error) {
		if off+4 > len(body) {
			return 0, ErrTruncated
		}
		v := binary.BigEndian.Uint32(body[off : off+4])
		off += 4
		return v, nil
	}
	count, err := readU32()
	if err != nil {
		return err
	}
	if int(count) != len(dst) {
		return fmt.Errorf("%w: %d tensors, want %d", ErrDstMismatch, count, len(dst))
	}
	for i, t := range dst {
		rank, err := readU32()
		if err != nil {
			return err
		}
		if int(rank) != len(t.Shape) {
			return fmt.Errorf("%w: tensor %d rank %d, want %d", ErrDstMismatch, i, rank, len(t.Shape))
		}
		for r := range t.Shape {
			d, err := readU32()
			if err != nil {
				return err
			}
			if int(d) != t.Shape[r] {
				return fmt.Errorf("%w: tensor %d dim %d is %d, want %d", ErrDstMismatch, i, r, d, t.Shape[r])
			}
		}
		elems := t.Len()
		if off+4*elems > len(body) {
			return ErrTruncated
		}
		t.EnsureOwnedDiscard()
		for j := 0; j < elems; j++ {
			t.Data[j] = math.Float32frombits(binary.BigEndian.Uint32(body[off:]))
			off += 4
		}
	}
	if off != len(body) {
		return fmt.Errorf("codec: %d trailing bytes", len(body)-off)
	}
	return nil
}

// crcIEEE exposes the checksum for tests that need to re-sign crafted
// blobs.
func crcIEEE(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
