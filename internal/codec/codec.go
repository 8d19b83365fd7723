// Package codec implements the wire format used to ship model weights
// between the coordinator and clients. Weights travel as float32 (the
// convention of real FL deployments, and the basis of the repository's
// network-cost accounting), framed with tensor shapes and a checksum so
// corrupted transfers are detected rather than silently trained on.
// Since the compute backend stores tensors as float32 (tensor.Float),
// encoding and decoding move raw element bits with no per-element
// narrowing or widening — the wire format is lossless.
//
// Layout (byte order, envelope, error contract and allocation bound
// are internal/wire's):
//
//	magic   "FTW1"
//	count   uint32  number of tensors
//	per tensor:
//	  rank  uint32  1..8
//	  dims  rank × uint32, each 1..2^24, product ≤ 2^24
//	  data  prod(dims) × float32
//	crc32   uint32  of everything above
//
// fl.Checkpoint (FTCP) embeds these blobs per model, and
// internal/netcoord (FTNC) ships them as frame payloads.
package codec

import (
	"errors"
	"fmt"
	"slices"

	"fedtrans/internal/tensor"
	"fedtrans/internal/wire"
)

const magic = "FTW1"

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

	errMalformed = errors.New("codec: malformed blob")
)

var wireErrs = wire.Errs{Magic: ErrBadMagic, Checksum: ErrChecksum, Truncated: ErrTruncated, Corrupt: errMalformed}

// maxDim guards against hostile or corrupted size fields.
const maxDim = 1 << 24

// EncodedSize returns the exact byte size AppendEncode appends for the
// given tensors.
func EncodedSize(ts []*tensor.Tensor) int {
	n := 4 + 4 // magic + count
	for _, t := range ts {
		n += 4 + 4*len(t.Shape) + 4*t.Len()
	}
	return n + 4 // crc
}

// AppendEncode appends the encoded tensors to dst and returns the
// extended slice; hot paths pass one reused buffer (the networked
// coordinator re-encodes the current weights for every dispatch). The
// backend element type is already float32, so the data section is a
// straight bit copy of each tensor's buffer (big-endian framed).
func AppendEncode(dst []byte, ts []*tensor.Tensor) []byte {
	start := len(dst)
	e := wire.Enc{B: append(slices.Grow(dst, EncodedSize(ts)), magic...)}
	e.U32(uint32(len(ts)))
	for _, t := range ts {
		e.U32(uint32(len(t.Shape)))
		for _, d := range t.Shape {
			e.U32(uint32(d))
		}
		e.B = wire.AppendF32s(e.B, t.Data)
	}
	return wire.Seal(e.B, start)
}

// Decode parses a weight blob back into tensors. The magic is verified
// before the checksum so arbitrary non-FedTrans blobs report ErrBadMagic
// rather than ErrChecksum.
func Decode(blob []byte) ([]*tensor.Tensor, error) {
	return parse(blob, nil, false)
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
	_, err := parse(blob, dst, true)
	return err
}

// parse is the one FTW1 reader. It allocates a tensor per entry unless
// into is set, in which case each entry's shape must equal dst's and
// its data lands there. Nothing is allocated for a count or a shape
// until the bytes behind it are known to be present: a tensor takes at
// least 12 (rank, one dim, one element), and its data is taken before
// its buffer is made.
func parse(blob []byte, dst []*tensor.Tensor, into bool) ([]*tensor.Tensor, error) {
	d, err := wire.Open(blob, magic, &wireErrs)
	if err != nil {
		return nil, err
	}
	n := d.Count(12)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if !into {
		dst = make([]*tensor.Tensor, n)
	} else if n != len(dst) {
		return nil, fmt.Errorf("%w: %d tensors, want %d", ErrDstMismatch, n, len(dst))
	}
	for i := range dst {
		rank := d.U32()
		elems := 1
		var shape []int
		switch {
		case d.Err() != nil:
		case into:
			if int(rank) != len(dst[i].Shape) {
				return nil, fmt.Errorf("%w: tensor %d rank %d, want %d", ErrDstMismatch, i, rank, len(dst[i].Shape))
			}
			for r, want := range dst[i].Shape {
				if dim := d.U32(); d.Err() == nil && int(dim) != want {
					return nil, fmt.Errorf("%w: tensor %d dim %d is %d, want %d", ErrDstMismatch, i, r, dim, want)
				}
			}
			elems = dst[i].Len()
		case rank == 0 || rank > 8:
			return nil, fmt.Errorf("%w: rank %d", ErrShapeBounds, rank)
		default:
			shape = make([]int, rank)
			for r := range shape {
				dim := d.U32()
				if d.Err() == nil && (dim == 0 || dim > maxDim) {
					return nil, fmt.Errorf("%w: dim %d", ErrShapeBounds, dim)
				}
				shape[r] = int(dim)
				if elems *= int(dim); elems > maxDim {
					return nil, fmt.Errorf("%w: %d elements", ErrShapeBounds, elems)
				}
			}
		}
		data := d.Take(4 * elems)
		if d.Err() != nil {
			break
		}
		if into {
			dst[i].EnsureOwnedDiscard()
		} else {
			dst[i] = tensor.New(shape...)
		}
		wire.F32s(dst[i].Data, data)
	}
	return dst, d.Done()
}
