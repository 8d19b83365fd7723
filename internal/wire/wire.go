// Package wire is the one place in this repository that knows how
// bytes are laid out. FTW1 (internal/codec), FTCP (fl.Checkpoint), the
// FTNC frames and headers (internal/netcoord), the persisted-model
// prefix (internal/model) and the selector state (internal/selection)
// keep their own field tables; the conventions those tables share are
// stated here, once:
//
//   - Integers are fixed-width big-endian; signed values travel as
//     two's-complement u64; floats travel as their IEEE bits (float64
//     in a u64, float32 in a u32), so NaN payloads survive.
//   - A bool is one byte, 0 or 1; any other value is corrupt.
//   - A slice or string is a u32 length followed by its elements, and a
//     zero length decodes to nil (or ""), so decode → encode is the
//     identity.
//   - A map is a presence byte (0 = nil map, 1 = present), a u32 count,
//     then its entries with keys as i64 in strictly ascending order;
//     the encoder sorts, the decoder rejects any other order.
//     SortedMap is the same without the presence byte.
//   - The envelope of a stored blob is magic | body | CRC-32 (IEEE) of
//     magic and body. The body starts with a u32 (a version or a
//     count), so anything shorter than magic + 8 bytes is truncated.
//     The magic is checked before the checksum: a foreign blob is
//     "not ours", not "damaged".
//
// Error contract: a decoder never panics and never returns an error of
// its own. The caller hands it an Errs naming its sentinels, and gets
// back Truncated (bare) when the input ends early or a length exceeds
// what is left, Corrupt (wrapped with what was wrong) for a bad bool, a
// key out of order or trailing bytes, and Magic / Checksum from Open.
// The first failure sticks: later reads return zero values and consume
// nothing, so a layout is written as straight-line code and checked
// once, with Err or Done.
//
// Allocation bound: every length is checked against the bytes that
// remain before anything is allocated for it (Count), with the caller
// stating the least an element can occupy on the wire. Decoding n input
// bytes therefore never requests more than n × (in-memory size ÷ wire
// size of one element) bytes in one allocation — at most 8 × n for any
// element type in this repository (a map header per presence byte).
//
// A layout that is both written and read is one function over a Coder,
// which runs the same field list in either direction.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// Errs are the sentinels a decoder reports with; each format supplies
// its own so callers keep matching on the errors they always did.
type Errs struct {
	Magic, Checksum    error // Open only
	Truncated, Corrupt error
}

// Checksum is the CRC-32 (IEEE) every envelope and frame carries.
func Checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// Seal appends the checksum of b[start:] — a blob that began at start
// with its magic — and returns the extended slice.
func Seal(b []byte, start int) []byte {
	return binary.BigEndian.AppendUint32(b, Checksum(b[start:]))
}

// Open checks a sealed blob's length, magic and checksum, in that
// order, and returns a decoder over its body (after the magic, before
// the checksum).
func Open(b []byte, magic string, errs *Errs) (Dec, error) {
	if len(b) < len(magic)+8 {
		return Dec{}, errs.Truncated
	}
	if string(b[:len(magic)]) != magic {
		return Dec{}, errs.Magic
	}
	body := b[:len(b)-4]
	if Checksum(body) != binary.BigEndian.Uint32(b[len(b)-4:]) {
		return Dec{}, errs.Checksum
	}
	return Dec{b: body, off: len(magic), errs: errs}, nil
}

// AppendF32s appends v as big-endian float32 bits (no length prefix).
// It and F32s are the bulk copies under FTW1 and PREDICT, deliberately
// not generic over the float type: inside a generic body the compiler
// leaves math.Float32bits as a call per element.
func AppendF32s(dst []byte, v []float32) []byte {
	dst = slices.Grow(dst, 4*len(v))
	for _, x := range v {
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(x))
	}
	return dst
}

// F32s fills dst from the first 4·len(dst) bytes of src, big-endian
// float32 bits each; src must be at least that long.
func F32s(dst []float32, src []byte) {
	src = src[:4*len(dst)]
	for i := range dst {
		dst[i] = math.Float32frombits(binary.BigEndian.Uint32(src[4*i:]))
	}
}

// Enc is the append-only encoder. A counting Enc (Counting) appends
// nothing and adds to N the bytes each call would have appended, so a
// layout run over it first sizes the buffer it is then encoded into.
type Enc struct {
	B        []byte
	N        int
	counting bool
}

// Counting returns an Enc that counts bytes instead of appending them.
func Counting() Enc { return Enc{counting: true} }

func (e *Enc) U8(v uint8) {
	if e.counting {
		e.N++
		return
	}
	e.B = append(e.B, v)
}

func (e *Enc) U32(v uint32) { e.uint(uint64(v), 4) }
func (e *Enc) U64(v uint64) { e.uint(v, 8) }

func (e *Enc) Raw(b []byte) {
	if e.counting {
		e.N += len(b)
		return
	}
	e.B = append(e.B, b...)
}

// uint appends the low n bytes of v, most significant first.
func (e *Enc) uint(v uint64, n int) {
	if e.counting {
		e.N += n
		return
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	e.B = append(e.B, b[8-n:]...)
}

// Dec is the checked decoder: every read is bounds-checked and the
// first failure sticks.
type Dec struct {
	b    []byte
	off  int
	err  error
	errs *Errs
}

// NewDec returns a decoder over b reporting with errs.
func NewDec(b []byte, errs *Errs) Dec { return Dec{b: b, errs: errs} }

func (d *Dec) U8() uint8   { return uint8(d.uint(1)) }
func (d *Dec) U32() uint32 { return uint32(d.uint(4)) }
func (d *Dec) U64() uint64 { return d.uint(8) }

// uint reads n bytes as an unsigned integer, most significant first.
func (d *Dec) uint(n int) (v uint64) {
	for _, b := range d.Take(n) {
		v = v<<8 | uint64(b)
	}
	return v
}

// Count reads a u32 length and refuses one whose elements, at elemSize
// bytes each at the least, the remaining input cannot hold — before the
// caller allocates for it.
func (d *Dec) Count(elemSize int) int {
	n := int(d.U32())
	if d.err == nil && n > (len(d.b)-d.off)/elemSize {
		d.err = d.errs.Truncated
	}
	if d.err != nil {
		return 0
	}
	return n
}

// Take returns the next n bytes without copying them (nil on failure).
func (d *Dec) Take(n int) []byte {
	if d.err == nil && (n < 0 || len(d.b)-d.off < n) {
		d.err = d.errs.Truncated
	}
	if d.err != nil {
		return nil
	}
	d.off += n
	return d.b[d.off-n : d.off]
}

// Rest takes everything not yet read.
func (d *Dec) Rest() []byte { return d.Take(len(d.b) - d.off) }

// Corruptf fails the decode with the Corrupt sentinel and a reason.
func (d *Dec) Corruptf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", d.errs.Corrupt, fmt.Sprintf(format, args...))
	}
}

// Err is the first failure, if any.
func (d *Dec) Err() error { return d.err }

// Done is Err for a layout that must end where its input does: unread
// bytes are corrupt.
func (d *Dec) Done() error {
	if d.err == nil && d.off != len(d.b) {
		d.Corruptf("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// Coder runs one field list in either direction, XDR-style: every
// method takes a pointer, writes *p when encoding and fills *p when
// decoding. Failures land on the Dec it was made from.
type Coder struct {
	e *Enc
	d *Dec
}

// Encoding returns a Coder that appends to e.
func Encoding(e *Enc) Coder { return Coder{e: e} }

// Decoding returns a Coder that reads from d.
func Decoding(d *Dec) Coder { return Coder{d: d} }

// Corruptf fails a decode (see Dec.Corruptf); encoding ignores it, since
// a layout's validity checks judge input, not the program's own values.
func (c Coder) Corruptf(format string, args ...any) {
	if c.d != nil {
		c.d.Corruptf(format, args...)
	}
}

func (c Coder) U8(p *uint8)   { u := uint64(*p); c.uint(&u, 1); *p = uint8(u) }
func (c Coder) U16(p *uint16) { u := uint64(*p); c.uint(&u, 2); *p = uint16(u) }
func (c Coder) U32(p *uint32) { u := uint64(*p); c.uint(&u, 4); *p = uint32(u) }
func (c Coder) U64(p *uint64) { c.uint(p, 8) }

// uint is an n-byte unsigned integer in either direction.
func (c Coder) uint(p *uint64, n int) {
	if c.d != nil {
		*p = c.d.uint(n)
	} else {
		c.e.uint(*p, n)
	}
}

// I64, Int and F64 travel as a u64: two's complement, or IEEE bits.
func (c Coder) I64(p *int64) { u := uint64(*p); c.U64(&u); *p = int64(u) }
func (c Coder) Int(p *int)   { u := uint64(*p); c.U64(&u); *p = int(u) }
func (c Coder) F64(p *float64) {
	u := math.Float64bits(*p)
	c.U64(&u)
	*p = math.Float64frombits(u)
}

func (c Coder) Bool(p *bool) {
	var u uint8
	if *p {
		u = 1
	}
	if c.U8(&u); u > 1 {
		c.Corruptf("bad bool byte %d", u)
	}
	*p = u == 1
}

// Raw is len(p) bytes with no length prefix (a magic).
func (c Coder) Raw(p []byte) {
	if c.d != nil {
		copy(p, c.d.Take(len(p)))
	} else {
		c.e.Raw(p)
	}
}

// length is the u32 length of a slice of n elements: written when
// encoding, read and bounded by the remaining input when decoding.
func (c Coder) length(n, elemSize int) int {
	if c.d != nil {
		return c.d.Count(elemSize)
	}
	c.e.U32(uint32(n))
	return n
}

// Bytes is a length-prefixed byte string; decoding copies it.
func (c Coder) Bytes(p *[]byte) {
	n := c.length(len(*p), 1)
	if c.d == nil {
		c.e.Raw(*p)
		return
	}
	*p = nil
	if n > 0 {
		*p = append(*p, c.d.Take(n)...)
	}
}

func (c Coder) Str(p *string) {
	b := []byte(*p)
	c.Bytes(&b)
	*p = string(b)
}

// F64s is Slice over F64 as a tight loop.
func (c Coder) F64s(p *[]float64) {
	n := c.length(len(*p), 8)
	if c.d == nil {
		for _, x := range *p {
			c.e.U64(math.Float64bits(x))
		}
		return
	}
	*p = nil
	if n > 0 {
		*p = make([]float64, n)
	}
	b := c.d.Take(8 * n)
	for i := range *p {
		(*p)[i] = math.Float64frombits(binary.BigEndian.Uint64(b[8*i:]))
	}
}

// Slice is a u32 length and then elem over each element; minElemBytes
// is the least one element occupies on the wire, which bounds what a
// hostile length can make a decode allocate.
func Slice[T any](c Coder, p *[]T, minElemBytes int, elem func(*T)) {
	n := c.length(len(*p), minElemBytes)
	if c.d != nil {
		*p = nil
		if n > 0 {
			*p = make([]T, n)
		}
	}
	for i := range *p {
		if c.d != nil && c.d.err != nil {
			return
		}
		elem(&(*p)[i])
	}
}

// SliceIn is Slice whose decoded elements are carved from *arena, which
// grows by appending: a list of lists decodes into a few backing arrays,
// not one per list. Growing the arena may request up to twice what its
// elements occupy. Encoding is Slice's.
func SliceIn[T any](c Coder, p *[]T, arena *[]T, minElemBytes int, elem func(*T)) {
	if c.d == nil {
		Slice(c, p, minElemBytes, elem)
		return
	}
	n := c.length(0, minElemBytes)
	*p = nil
	if n == 0 {
		return
	}
	a := slices.Grow(*arena, n)
	start := len(a)
	a = a[:start+n]
	clear(a[start:])
	*arena = a
	for i := start; i < start+n && c.d.err == nil; i++ {
		elem(&a[i])
	}
	*p = a[start : start+n : start+n]
}

// Map is a presence byte and, for a non-nil map, SortedMap.
func Map[K ~int | ~int64, V any](c Coder, p *map[K]V, minValBytes int, val func(*V)) {
	present := *p != nil
	if c.Bool(&present); present {
		SortedMap(c, p, minValBytes, val)
	} else {
		*p = nil
	}
}

// SortedMap is a u32 count and then the entries, key as i64 and then
// val over the value, in strictly ascending key order. Decoding always
// yields a non-nil map.
func SortedMap[K ~int | ~int64, V any](c Coder, p *map[K]V, minValBytes int, val func(*V)) {
	n := c.length(len(*p), 8+minValBytes)
	if c.d != nil {
		*p = make(map[K]V, n)
	}
	if n == 0 {
		return
	}
	// val is a func value, so what it points at lives on the heap: one
	// slot per map, not one per entry.
	v := new(V)
	if c.d == nil {
		var few [8]K // most maps here are a client's few models: sort them on the stack
		keys := few[:0]
		if n > len(few) {
			keys = make([]K, 0, n)
		}
		for k := range *p {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			*v = (*p)[k]
			c.e.U64(uint64(k))
			val(v)
		}
		return
	}
	var prev K
	for i := 0; i < n && c.d.err == nil; i++ {
		k := K(c.d.U64())
		if i > 0 && k <= prev {
			c.Corruptf("map keys not strictly ascending")
		}
		var zero V
		*v = zero
		val(v)
		(*p)[k], prev = *v, k
	}
}
