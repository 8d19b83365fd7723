package fl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"fedtrans/internal/aggregate"
	"fedtrans/internal/model"
	"fedtrans/internal/par"
	"fedtrans/internal/selection"
	"fedtrans/internal/transform"
)

// Checkpoint is a complete, deterministic snapshot of a Runtime between
// rounds: resuming from it reproduces the uninterrupted run bit for bit.
// It captures everything a round can read — the suite weights plus the
// lineage metadata the wire format deliberately drops (checkpointing is
// not deployment: a resumed suite must keep transforming and computing
// similarity exactly as before), the ID-scope counters, the exact rng
// position as a draw count, the Client Manager utilities, the DoC and
// activeness windows, server-optimizer and selector state, churn
// membership, any in-flight accumulator shards, the asynchronous-mode
// scheduler state (virtual clock, staleness tallies, and the in-flight
// dispatches with their download-time weight snapshots — resume
// re-submits them and deterministically retrains), and the accumulated
// Result.
//
// # Wire format (FTCP v2)
//
// The encoding is a canonical big-endian binary layout (companion to
// the internal/codec weight format, which carries the per-model Blob
// payloads):
//
//	"FTCP" | u32 version=2 | body | u32 CRC-32 (IEEE) of magic..body
//
// v2 extends v1 with the dataset geometry (client count, feature
// dimension, class count — validated on restore) and the asynchronous
// scheduler block; v1 blobs are rejected with ErrCkptVersion.
//
// All integers are fixed-width big-endian; signed values are two's-
// complement u64; float64s are IEEE bits (NaN payloads survive).
// Slices encode as u32 length + elements, and a zero length decodes to
// nil. Maps encode as a presence byte (0 = nil, 1 = present), a u32
// count, and key-sorted entries; decode enforces strictly ascending
// keys. Together these rules make the encoding canonical: any blob
// that decodes successfully re-encodes to the identical bytes (the
// FuzzCheckpointDecode invariant).
type Checkpoint struct {
	// Round is the number of fully completed rounds; resume continues
	// at this round index.
	Round int
	// RNGCount is the number of source draws the run rng has consumed.
	// Restore fast-forwards a freshly seeded source by this many steps,
	// landing on the exact generator state of the interrupted run.
	RNGCount uint64
	// BestAcc/Stall are the convergence-rule trackers.
	BestAcc float64
	Stall   int
	// ModelCtr/CellCtr realign the run's ID scope so models and cells
	// created after a resume receive the same IDs as in the
	// uninterrupted run.
	ModelCtr int64
	CellCtr  int64
	// Clients/FeatureDim/Classes pin the dataset geometry the run
	// trained on. Restore validates them against the resuming dataset
	// and rejects a mismatch with ErrGeometryMismatch — resuming onto
	// differently shaped data used to be silently undefined. A larger
	// client population than Clients is allowed (late joiners start at
	// zero utility, the documented EnsureClients grow path).
	Clients    int
	FeatureDim int
	Classes    int
	// Models is the suite in creation order: serialized weights plus
	// the lineage metadata MarshalBinary drops.
	Models []CkptModel
	// Utilities is the Client Manager's per-client utility table.
	Utilities []map[int]float64
	// DoCLosses is the DoC tracker's loss window.
	DoCLosses []float64
	// Act holds each model's activeness windows, ascending by model ID.
	Act []CkptAct
	// Yogi holds the server optimizer's moment vectors, ascending by
	// slot; nil when no server optimizer state exists.
	Yogi []CkptYogi
	// Selector is the selector's StateSnapshot (nil for stateless
	// selectors such as uniform random).
	Selector []byte
	// ChurnOnline is the churn tracker's online bitmap (nil when churn
	// is disabled).
	ChurnOnline []bool
	// AsyncNow/StaleSum/StaleCnt/AsyncSeq are the asynchronous-mode
	// virtual clock, staleness tallies, and dispatch sequence counter;
	// all zero for synchronous runs.
	AsyncNow float64
	StaleSum int64
	StaleCnt int64
	AsyncSeq int
	// Inflight is the asynchronous in-flight dispatch list in dispatch
	// (sequence) order; nil for synchronous runs and whenever no client
	// is mid-training at the checkpoint boundary.
	Inflight []CkptInflight
	// Accums is any in-flight streaming-aggregation state, ascending by
	// model ID. Runtime checkpoints fire at round boundaries where this
	// is nil (Finalize resets the shards); the field exists so a
	// mid-round checkpoint needs no format change.
	Accums []aggregate.AccumSnapshot
	// Res is the Result accumulated so far.
	Res Result
}

// CkptModel is one suite model: its MarshalBinary blob plus the
// identity and lineage fields persistence drops.
type CkptModel struct {
	Blob      []byte
	ID        int
	ParentID  int
	BornRound int
	Cells     []CkptCell
}

// CkptCell is one cell's identity/lineage metadata.
type CkptCell struct {
	ID            int64
	AncestorID    int64
	InheritedFrac float64
	WidenedLast   bool
}

// CkptInflight is one asynchronous in-flight dispatch: which client is
// training which model version, when it was dispatched on the virtual
// clock, and the dispatch-time weight snapshot it trains from
// (SrcBlob, a model.MarshalBinary frame — the codec is bit-lossless
// for float32 weights, so resume retrains the attempt deterministically
// and lands on the exact update of the uninterrupted run).
type CkptInflight struct {
	Client     int
	ModelID    int
	Version    int
	Seq        int
	DispatchAt float64
	SrcBlob    []byte
}

// CkptAct is one model's activeness history, keyed by cell ID.
type CkptAct struct {
	ModelID int
	Hist    map[int64][]float64
}

// CkptYogi is one model slot's server-optimizer moments.
type CkptYogi struct {
	Slot int
	M    []float64
	V    []float64
}

// Checkpoint decode errors.
var (
	ErrCkptMagic     = errors.New("fl: not a checkpoint (bad magic)")
	ErrCkptVersion   = errors.New("fl: unsupported checkpoint version")
	ErrCkptChecksum  = errors.New("fl: checkpoint checksum mismatch")
	ErrCkptTruncated = errors.New("fl: truncated checkpoint")
	ErrCkptCorrupt   = errors.New("fl: corrupt checkpoint")
)

// ErrGeometryMismatch reports a checkpoint whose recorded dataset
// geometry (feature dimension, class count, or client population) is
// incompatible with the dataset the resuming runtime was built on.
var ErrGeometryMismatch = errors.New("fl: checkpoint dataset geometry mismatch")

var ckptMagic = [4]byte{'F', 'T', 'C', 'P'}

const ckptVersion = 2

// ckptEnc builds the canonical encoding.
type ckptEnc struct{ b []byte }

func (e *ckptEnc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *ckptEnc) u32(v uint32) { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *ckptEnc) u64(v uint64) { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *ckptEnc) i64(v int64)  { e.u64(uint64(v)) }
func (e *ckptEnc) f64(v float64) {
	e.u64(math.Float64bits(v))
}

func (e *ckptEnc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *ckptEnc) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.b = append(e.b, b...)
}

func (e *ckptEnc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *ckptEnc) f64s(v []float64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

func (e *ckptEnc) bools(v []bool) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.bool(x)
	}
}

// intFloatMap encodes a map[int]float64 with a presence byte and
// key-sorted entries.
func (e *ckptEnc) intFloatMap(m map[int]float64) {
	if m == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	e.u32(uint32(len(keys)))
	for _, k := range keys {
		e.i64(int64(k))
		e.f64(m[k])
	}
}

// intIntMap encodes a map[int]int with a presence byte and key-sorted
// entries.
func (e *ckptEnc) intIntMap(m map[int]int) {
	if m == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	e.u32(uint32(len(keys)))
	for _, k := range keys {
		e.i64(int64(k))
		e.i64(int64(m[k]))
	}
}

// ckptDec is the strict decoder: every read is bounds-checked and the
// first failure sticks.
type ckptDec struct {
	b   []byte
	off int
	err error
}

func (d *ckptDec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *ckptDec) need(n int) bool {
	if d.err != nil {
		return false
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail(ErrCkptTruncated)
		return false
	}
	return true
}

func (d *ckptDec) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *ckptDec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *ckptDec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *ckptDec) i64() int64   { return int64(d.u64()) }
func (d *ckptDec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *ckptDec) int() int     { return int(d.i64()) }

func (d *ckptDec) bool() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("%w: bad bool byte", ErrCkptCorrupt))
		return false
	}
}

// count reads a u32 length and validates that elemSize bytes per
// element still fit in the remaining input, bounding allocations.
func (d *ckptDec) count(elemSize int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if elemSize > 0 && n > (len(d.b)-d.off)/elemSize {
		d.fail(ErrCkptTruncated)
		return 0
	}
	return n
}

func (d *ckptDec) bytes() []byte {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.b[d.off:])
	d.off += n
	return out
}

func (d *ckptDec) str() string {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *ckptDec) f64s() []float64 {
	n := d.count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *ckptDec) bools() []bool {
	n := d.count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.bool()
	}
	return out
}

func (d *ckptDec) intFloatMap() map[int]float64 {
	switch d.u8() {
	case 0:
		return nil
	case 1:
	default:
		d.fail(fmt.Errorf("%w: bad map presence byte", ErrCkptCorrupt))
		return nil
	}
	n := d.count(16)
	if d.err != nil {
		return nil
	}
	out := make(map[int]float64, n)
	prev := int64(math.MinInt64)
	for i := 0; i < n; i++ {
		k := d.i64()
		v := d.f64()
		if d.err != nil {
			return nil
		}
		if i > 0 && k <= prev {
			d.fail(fmt.Errorf("%w: map keys not strictly ascending", ErrCkptCorrupt))
			return nil
		}
		prev = k
		out[int(k)] = v
	}
	return out
}

func (d *ckptDec) intIntMap() map[int]int {
	switch d.u8() {
	case 0:
		return nil
	case 1:
	default:
		d.fail(fmt.Errorf("%w: bad map presence byte", ErrCkptCorrupt))
		return nil
	}
	n := d.count(16)
	if d.err != nil {
		return nil
	}
	out := make(map[int]int, n)
	prev := int64(math.MinInt64)
	for i := 0; i < n; i++ {
		k := d.i64()
		v := d.i64()
		if d.err != nil {
			return nil
		}
		if i > 0 && k <= prev {
			d.fail(fmt.Errorf("%w: map keys not strictly ascending", ErrCkptCorrupt))
			return nil
		}
		prev = k
		out[int(k)] = int(v)
	}
	return out
}

func encodeResult(e *ckptEnc, r *Result) {
	e.f64s(r.ClientAcc)
	e.f64(r.MeanAcc)
	e.f64(r.Box.Min)
	e.f64(r.Box.Q1)
	e.f64(r.Box.Median)
	e.f64(r.Box.Q3)
	e.f64(r.Box.Max)
	e.f64(r.Box.Mean)
	e.f64(r.Costs.TrainMACs)
	e.i64(r.Costs.NetworkBytes)
	e.i64(r.Costs.StorageBytes)
	e.str(r.CostCurve.Name)
	e.f64s(r.CostCurve.X)
	e.f64s(r.CostCurve.Y)
	e.f64s(r.RoundTimes)
	e.u32(uint32(len(r.SuiteArch)))
	for _, s := range r.SuiteArch {
		e.str(s)
	}
	e.f64s(r.SuiteMACs)
	e.i64(int64(r.RoundsRun))
	e.i64(r.Overhead.UtilityUpdates)
	e.i64(r.Overhead.DoCUpdates)
	e.i64(r.Overhead.Transforms)
	e.f64s(r.BestModelMACs)
	e.i64(int64(r.Dropouts))
	e.i64(int64(r.Failures))
	e.i64(int64(r.Retries))
	e.i64(int64(r.AbortedRounds))
	e.f64(r.MeanStaleness)
	e.u32(uint32(len(r.Log)))
	for i := range r.Log {
		l := &r.Log[i]
		e.i64(int64(l.Round))
		e.i64(int64(l.Updates))
		e.i64(int64(l.Dropouts))
		e.f64(l.MeanLoss)
		e.f64(l.RoundTime)
		e.intIntMap(l.UpdatesPerModel)
		e.bool(l.Transformed)
		e.i64(int64(l.SuiteSize))
		e.i64(int64(l.Failures))
		e.i64(int64(l.Retries))
		e.bool(l.Committed)
	}
}

func decodeResult(d *ckptDec) Result {
	var r Result
	r.ClientAcc = d.f64s()
	r.MeanAcc = d.f64()
	r.Box.Min = d.f64()
	r.Box.Q1 = d.f64()
	r.Box.Median = d.f64()
	r.Box.Q3 = d.f64()
	r.Box.Max = d.f64()
	r.Box.Mean = d.f64()
	r.Costs.TrainMACs = d.f64()
	r.Costs.NetworkBytes = d.i64()
	r.Costs.StorageBytes = d.i64()
	r.CostCurve.Name = d.str()
	r.CostCurve.X = d.f64s()
	r.CostCurve.Y = d.f64s()
	r.RoundTimes = d.f64s()
	if n := d.count(4); n > 0 {
		r.SuiteArch = make([]string, n)
		for i := range r.SuiteArch {
			r.SuiteArch[i] = d.str()
		}
	}
	r.SuiteMACs = d.f64s()
	r.RoundsRun = d.int()
	r.Overhead.UtilityUpdates = d.i64()
	r.Overhead.DoCUpdates = d.i64()
	r.Overhead.Transforms = d.i64()
	r.BestModelMACs = d.f64s()
	r.Dropouts = d.int()
	r.Failures = d.int()
	r.Retries = d.int()
	r.AbortedRounds = d.int()
	r.MeanStaleness = d.f64()
	if n := d.count(43); n > 0 { // fixed RoundLog footprint: 8×i64/f64 + map byte + 2 bools
		r.Log = make([]RoundLog, n)
		for i := range r.Log {
			l := &r.Log[i]
			l.Round = d.int()
			l.Updates = d.int()
			l.Dropouts = d.int()
			l.MeanLoss = d.f64()
			l.RoundTime = d.f64()
			l.UpdatesPerModel = d.intIntMap()
			l.Transformed = d.bool()
			l.SuiteSize = d.int()
			l.Failures = d.int()
			l.Retries = d.int()
			l.Committed = d.bool()
		}
	}
	return r
}

// EncodeCheckpoint serializes a checkpoint into the canonical FTCP v2
// byte layout described on Checkpoint.
func EncodeCheckpoint(ck *Checkpoint) ([]byte, error) {
	e := &ckptEnc{b: make([]byte, 0, 1024)}
	e.b = append(e.b, ckptMagic[:]...)
	e.u32(ckptVersion)
	e.i64(int64(ck.Round))
	e.u64(ck.RNGCount)
	e.f64(ck.BestAcc)
	e.i64(int64(ck.Stall))
	e.i64(ck.ModelCtr)
	e.i64(ck.CellCtr)
	e.i64(int64(ck.Clients))
	e.i64(int64(ck.FeatureDim))
	e.i64(int64(ck.Classes))

	e.u32(uint32(len(ck.Models)))
	for i := range ck.Models {
		m := &ck.Models[i]
		e.bytes(m.Blob)
		e.i64(int64(m.ID))
		e.i64(int64(m.ParentID))
		e.i64(int64(m.BornRound))
		e.u32(uint32(len(m.Cells)))
		for _, c := range m.Cells {
			e.i64(c.ID)
			e.i64(c.AncestorID)
			e.f64(c.InheritedFrac)
			e.bool(c.WidenedLast)
		}
	}

	e.u32(uint32(len(ck.Utilities)))
	for _, u := range ck.Utilities {
		e.intFloatMap(u)
	}
	e.f64s(ck.DoCLosses)

	e.u32(uint32(len(ck.Act)))
	for i := range ck.Act {
		a := &ck.Act[i]
		e.i64(int64(a.ModelID))
		ids := make([]int64, 0, len(a.Hist))
		for id := range a.Hist {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(x, y int) bool { return ids[x] < ids[y] })
		e.u32(uint32(len(ids)))
		for _, id := range ids {
			e.i64(id)
			e.f64s(a.Hist[id])
		}
	}

	e.u32(uint32(len(ck.Yogi)))
	for i := range ck.Yogi {
		y := &ck.Yogi[i]
		e.i64(int64(y.Slot))
		e.f64s(y.M)
		e.f64s(y.V)
	}

	e.bytes(ck.Selector)
	e.bools(ck.ChurnOnline)

	e.f64(ck.AsyncNow)
	e.i64(ck.StaleSum)
	e.i64(ck.StaleCnt)
	e.i64(int64(ck.AsyncSeq))
	e.u32(uint32(len(ck.Inflight)))
	for i := range ck.Inflight {
		f := &ck.Inflight[i]
		e.i64(int64(f.Client))
		e.i64(int64(f.ModelID))
		e.i64(int64(f.Version))
		e.i64(int64(f.Seq))
		e.f64(f.DispatchAt)
		e.bytes(f.SrcBlob)
	}

	e.u32(uint32(len(ck.Accums)))
	for i := range ck.Accums {
		a := &ck.Accums[i]
		e.i64(int64(a.ModelID))
		e.f64s(a.Sum)
		e.f64(a.Weight)
		e.f64(a.LossSum)
		e.i64(int64(a.Count))
	}

	encodeResult(e, &ck.Res)

	e.u32(crc32.ChecksumIEEE(e.b))
	return e.b, nil
}

// DecodeCheckpoint parses and validates an FTCP v2 checkpoint. The
// decoder is strict: checksum, bounds, canonical key order, and exact
// length are all enforced, so any successfully decoded checkpoint
// re-encodes to identical bytes.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	if len(b) < 12 {
		return nil, ErrCkptTruncated
	}
	if [4]byte(b[:4]) != ckptMagic {
		return nil, ErrCkptMagic
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(trailer) {
		return nil, ErrCkptChecksum
	}
	d := &ckptDec{b: body, off: 4}
	if v := d.u32(); d.err == nil && v != ckptVersion {
		return nil, fmt.Errorf("%w: %d", ErrCkptVersion, v)
	}

	ck := &Checkpoint{}
	ck.Round = d.int()
	ck.RNGCount = d.u64()
	ck.BestAcc = d.f64()
	ck.Stall = d.int()
	ck.ModelCtr = d.i64()
	ck.CellCtr = d.i64()
	ck.Clients = d.int()
	ck.FeatureDim = d.int()
	ck.Classes = d.int()

	if n := d.count(16); n > 0 {
		ck.Models = make([]CkptModel, n)
		for i := range ck.Models {
			m := &ck.Models[i]
			m.Blob = d.bytes()
			m.ID = d.int()
			m.ParentID = d.int()
			m.BornRound = d.int()
			if cn := d.count(25); cn > 0 {
				m.Cells = make([]CkptCell, cn)
				for j := range m.Cells {
					c := &m.Cells[j]
					c.ID = d.i64()
					c.AncestorID = d.i64()
					c.InheritedFrac = d.f64()
					c.WidenedLast = d.bool()
				}
			}
			if d.err != nil {
				return nil, d.err
			}
		}
	}

	if n := d.count(1); n > 0 {
		ck.Utilities = make([]map[int]float64, n)
		for i := range ck.Utilities {
			ck.Utilities[i] = d.intFloatMap()
			if d.err != nil {
				return nil, d.err
			}
		}
	}
	ck.DoCLosses = d.f64s()

	if n := d.count(12); n > 0 {
		ck.Act = make([]CkptAct, n)
		prevID := int64(math.MinInt64)
		for i := range ck.Act {
			a := &ck.Act[i]
			a.ModelID = d.int()
			if d.err == nil && int64(a.ModelID) <= prevID {
				return nil, fmt.Errorf("%w: activeness model IDs not ascending", ErrCkptCorrupt)
			}
			prevID = int64(a.ModelID)
			hn := d.count(12)
			if d.err != nil {
				return nil, d.err
			}
			a.Hist = make(map[int64][]float64, hn)
			prevCell := int64(math.MinInt64)
			for j := 0; j < hn; j++ {
				id := d.i64()
				vals := d.f64s()
				if d.err != nil {
					return nil, d.err
				}
				if j > 0 && id <= prevCell {
					return nil, fmt.Errorf("%w: activeness cell IDs not ascending", ErrCkptCorrupt)
				}
				prevCell = id
				a.Hist[id] = vals
			}
		}
	}

	if n := d.count(16); n > 0 {
		ck.Yogi = make([]CkptYogi, n)
		prev := int64(math.MinInt64)
		for i := range ck.Yogi {
			y := &ck.Yogi[i]
			y.Slot = d.int()
			if d.err == nil && int64(y.Slot) <= prev {
				return nil, fmt.Errorf("%w: yogi slots not ascending", ErrCkptCorrupt)
			}
			prev = int64(y.Slot)
			y.M = d.f64s()
			y.V = d.f64s()
			if d.err != nil {
				return nil, d.err
			}
		}
	}

	ck.Selector = d.bytes()
	ck.ChurnOnline = d.bools()

	ck.AsyncNow = d.f64()
	ck.StaleSum = d.i64()
	ck.StaleCnt = d.i64()
	ck.AsyncSeq = d.int()
	if n := d.count(44); n > 0 { // 4×i64 + f64 + blob length
		ck.Inflight = make([]CkptInflight, n)
		prevSeq := int64(math.MinInt64)
		for i := range ck.Inflight {
			f := &ck.Inflight[i]
			f.Client = d.int()
			f.ModelID = d.int()
			f.Version = d.int()
			f.Seq = d.int()
			if d.err == nil && (i > 0 && int64(f.Seq) <= prevSeq) {
				return nil, fmt.Errorf("%w: in-flight sequence numbers not ascending", ErrCkptCorrupt)
			}
			prevSeq = int64(f.Seq)
			f.DispatchAt = d.f64()
			f.SrcBlob = d.bytes()
			if d.err != nil {
				return nil, d.err
			}
		}
	}

	if n := d.count(36); n > 0 {
		ck.Accums = make([]aggregate.AccumSnapshot, n)
		prev := int64(math.MinInt64)
		for i := range ck.Accums {
			a := &ck.Accums[i]
			a.ModelID = d.int()
			if d.err == nil && int64(a.ModelID) <= prev {
				return nil, fmt.Errorf("%w: accumulator model IDs not ascending", ErrCkptCorrupt)
			}
			prev = int64(a.ModelID)
			a.Sum = d.f64s()
			a.Weight = d.f64()
			a.LossSum = d.f64()
			a.Count = d.int()
			if d.err != nil {
				return nil, d.err
			}
		}
	}

	ck.Res = decodeResult(d)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCkptCorrupt, len(body)-d.off)
	}
	return ck, nil
}

// ckptSnap is the cheap synchronous part of a checkpoint: COW model
// clones plus deep copies of the scalar state. Serialization (encode)
// happens later, off the round critical path.
type ckptSnap struct {
	ck     Checkpoint
	models []*model.Model // live COW clones, parallel to ck.Models
	srcs   []*model.Model // in-flight dispatch snapshots, parallel to ck.Inflight
}

// snapshot captures the runtime's state after `round` completed rounds.
// It must run on the round loop (nothing else may mutate the runtime),
// but costs only O(tensor headers): weight buffers are shared
// copy-on-write with the live suite and physically copied only if the
// next rounds overwrite them before the background encode finishes.
func (rt *Runtime) snapshot(round int) *ckptSnap {
	s := &ckptSnap{}
	ck := &s.ck
	ck.Round = round
	ck.RNGCount = rt.rngSrc.n
	ck.BestAcc = rt.bestAcc
	ck.Stall = rt.stall
	ck.ModelCtr, ck.CellCtr = rt.suite[0].IDScope().Counters()
	ck.Clients = rt.ds.Len()
	ck.FeatureDim = rt.ds.FeatureDim
	ck.Classes = rt.ds.Classes
	for _, m := range rt.suite {
		cm := CkptModel{ID: m.ID, ParentID: m.ParentID, BornRound: m.BornRound}
		for i := range m.Cells {
			c := &m.Cells[i]
			cm.Cells = append(cm.Cells, CkptCell{
				ID: c.ID, AncestorID: c.AncestorID,
				InheritedFrac: c.InheritedFrac, WidenedLast: c.WidenedLast,
			})
		}
		ck.Models = append(ck.Models, cm)
		s.models = append(s.models, m.Clone())
	}
	ck.Utilities = rt.mgr.ExportUtilities()
	ck.DoCLosses = rt.doc.Snapshot()
	actIDs := make([]int, 0, len(rt.act))
	for id := range rt.act {
		actIDs = append(actIDs, id)
	}
	sort.Ints(actIDs)
	for _, id := range actIDs {
		ck.Act = append(ck.Act, CkptAct{ModelID: id, Hist: rt.act[id].Snapshot()})
	}
	if rt.serverOpt != nil {
		for _, slot := range rt.serverOpt.y.Slots() {
			m, v := rt.serverOpt.y.State(slot)
			ck.Yogi = append(ck.Yogi, CkptYogi{Slot: slot, M: m, V: v})
		}
	}
	if st, ok := rt.cfg.Selector.(selection.Stateful); ok {
		ck.Selector = st.StateSnapshot()
	}
	if rt.churn != nil {
		ck.ChurnOnline = rt.churn.Snapshot()
	}
	ck.AsyncNow = rt.asyncNow
	ck.StaleSum = rt.staleSum
	ck.StaleCnt = rt.staleCnt
	ck.AsyncSeq = rt.asyncSeq
	for _, at := range rt.inflight {
		// The dispatch snapshot is read-only for its whole life, so a COW
		// clone here is race-free against the still-running background
		// training task; marshalling happens later, off the round loop.
		ck.Inflight = append(ck.Inflight, CkptInflight{
			Client: at.slot.client, ModelID: at.slot.m.ID,
			Version: at.version, Seq: at.seq, DispatchAt: at.dispatchAt,
		})
		s.srcs = append(s.srcs, at.slot.src.Clone())
	}
	if rt.agg != nil {
		ck.Accums = rt.agg.Snapshot()
	}
	ck.Res = cloneResult(&rt.res)
	return s
}

// encode serializes the snapshot's models and then the checkpoint
// itself, releasing the COW clones. Safe to call off the round loop.
func (s *ckptSnap) encode() ([]byte, error) {
	for i, m := range s.models {
		blob, err := m.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("fl: checkpoint model %d: %w", i, err)
		}
		s.ck.Models[i].Blob = blob
	}
	for _, m := range s.models {
		m.Release()
	}
	s.models = nil
	for i, m := range s.srcs {
		blob, err := m.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("fl: checkpoint in-flight model %d: %w", i, err)
		}
		s.ck.Inflight[i].SrcBlob = blob
	}
	for _, m := range s.srcs {
		m.Release()
	}
	s.srcs = nil
	return EncodeCheckpoint(&s.ck)
}

// checkpointAsync snapshots synchronously and encodes + delivers on a
// background goroutine. Run waits for all deliveries before returning;
// sink calls are serialized.
func (rt *Runtime) checkpointAsync(round int) {
	snap := rt.snapshot(round)
	sink := rt.cfg.CheckpointSink
	rt.ckptWG.Add(1)
	go func() {
		defer rt.ckptWG.Done()
		blob, err := snap.encode()
		rt.ckptMu.Lock()
		defer rt.ckptMu.Unlock()
		if err != nil {
			if rt.ckptErr == nil {
				rt.ckptErr = err
			}
			return
		}
		sink(round, blob)
	}()
}

// Checkpoint synchronously captures and encodes the runtime's current
// state (after rt.nextRound completed rounds).
func (rt *Runtime) Checkpoint() ([]byte, error) {
	return rt.snapshot(rt.nextRound).encode()
}

// Restore installs a checkpoint into a freshly constructed Runtime
// (same Config, dataset, trace, and initial spec as the original run).
// After Restore, Run continues from the checkpointed round and — for a
// deterministic configuration — reproduces the uninterrupted run's
// remaining rounds bit for bit.
func (rt *Runtime) Restore(b []byte) error {
	ck, err := DecodeCheckpoint(b)
	if err != nil {
		return err
	}
	return rt.restore(ck)
}

func (rt *Runtime) restore(ck *Checkpoint) error {
	cfg := rt.cfg
	if len(ck.Models) == 0 {
		return fmt.Errorf("%w: no models", ErrCkptCorrupt)
	}

	// Geometry gate: the suite's weights are shaped by the dataset the
	// run trained on. Feature dimension and class count must match
	// exactly; the client population may only grow (late joiners start
	// at zero utility via the EnsureClients path below).
	if ck.FeatureDim != rt.ds.FeatureDim || ck.Classes != rt.ds.Classes {
		return fmt.Errorf("%w: checkpoint trained on %d features / %d classes, dataset has %d / %d",
			ErrGeometryMismatch, ck.FeatureDim, ck.Classes, rt.ds.FeatureDim, rt.ds.Classes)
	}
	if ck.Clients > rt.ds.Len() {
		return fmt.Errorf("%w: checkpoint covers %d clients, dataset has %d",
			ErrGeometryMismatch, ck.Clients, rt.ds.Len())
	}
	if len(ck.Inflight) > 0 && cfg.MaxStaleness <= 0 {
		return errors.New("fl: checkpoint carries in-flight async state but MaxStaleness is 0")
	}
	for i := range ck.Inflight {
		if c := ck.Inflight[i].Client; c < 0 || c >= rt.ds.Len() {
			return fmt.Errorf("%w: in-flight client %d out of range", ErrCkptCorrupt, c)
		}
	}

	// Rebuild the suite in a fresh ID scope, then overwrite the lineage
	// metadata persistence drops and realign the scope counters so IDs
	// minted after the resume match the uninterrupted run.
	gen := model.NewIDGen()
	suite := make([]*model.Model, 0, len(ck.Models))
	for i := range ck.Models {
		cm := &ck.Models[i]
		m, err := model.UnmarshalModelScoped(cm.Blob, gen)
		if err != nil {
			return fmt.Errorf("fl: checkpoint model %d: %w", i, err)
		}
		if len(m.Cells) != len(cm.Cells) {
			return fmt.Errorf("%w: model %d lineage covers %d cells, architecture has %d",
				ErrCkptCorrupt, i, len(cm.Cells), len(m.Cells))
		}
		m.ID, m.ParentID, m.BornRound = cm.ID, cm.ParentID, cm.BornRound
		for j := range m.Cells {
			c := &cm.Cells[j]
			m.Cells[j].ID = c.ID
			m.Cells[j].AncestorID = c.AncestorID
			m.Cells[j].InheritedFrac = c.InheritedFrac
			m.Cells[j].WidenedLast = c.WidenedLast
		}
		suite = append(suite, m)
	}
	gen.SetCounters(ck.ModelCtr, ck.CellCtr)

	// Fast-forward the rng to the checkpointed draw count. The wrapped
	// source hides Source64, so each Int63 advances exactly one counted
	// step along the identical output stream.
	if rt.rngSrc.n > ck.RNGCount {
		return fmt.Errorf("fl: rng already at %d draws, checkpoint wants %d (runtime not fresh?)",
			rt.rngSrc.n, ck.RNGCount)
	}
	for rt.rngSrc.n < ck.RNGCount {
		rt.rng.Int63()
	}

	for _, m := range rt.suite {
		m.Release()
	}
	rt.suite = suite

	rt.mgr.ImportUtilities(ck.Utilities)
	// A checkpoint written against a smaller client population than the
	// current dataset still restores: later-joined clients start at the
	// zero-utility initialization.
	rt.mgr.EnsureClients(rt.ds.Len())
	rt.doc.Restore(ck.DoCLosses)
	rt.act = make(map[int]*transform.ActivenessTracker, len(ck.Act))
	for i := range ck.Act {
		tr := transform.NewActivenessTracker(cfg.Transform.ActWindow)
		tr.Restore(ck.Act[i].Hist)
		rt.act[ck.Act[i].ModelID] = tr
	}
	if len(ck.Yogi) > 0 {
		if rt.serverOpt == nil {
			rt.serverOpt = newYogiOpt(rt.yogiLR())
		}
		for i := range ck.Yogi {
			y := &ck.Yogi[i]
			rt.serverOpt.y.SetState(y.Slot, y.M, y.V)
		}
	}
	if len(ck.Selector) > 0 {
		st, ok := cfg.Selector.(selection.Stateful)
		if !ok {
			return errors.New("fl: checkpoint carries selector state but the configured selector is stateless")
		}
		if err := st.StateRestore(ck.Selector); err != nil {
			return err
		}
	}
	if len(ck.ChurnOnline) > 0 {
		if rt.churn == nil {
			return errors.New("fl: checkpoint carries churn state but churn is disabled")
		}
		if len(ck.ChurnOnline) > rt.ds.Len() {
			return fmt.Errorf("%w: churn bitmap covers %d clients, dataset has only %d (shrinking the population across a resume is unsupported)",
				ErrCkptCorrupt, len(ck.ChurnOnline), rt.ds.Len())
		}
		// Like the utility table above, a bitmap saved against a smaller
		// population still restores: clients beyond the saved prefix start
		// online, mirroring NewChurn's initialization.
		rt.churn.RestoreResized(ck.ChurnOnline, rt.ds.Len())
	}
	if len(ck.Accums) > 0 {
		if rt.agg == nil {
			rt.agg = rt.newAgg()
		}
		byID := make(map[int]*model.Model, len(rt.suite))
		for _, m := range rt.suite {
			byID[m.ID] = m
		}
		for i := range ck.Accums {
			m := byID[ck.Accums[i].ModelID]
			if m == nil {
				return fmt.Errorf("%w: accumulator for unknown model %d",
					ErrCkptCorrupt, ck.Accums[i].ModelID)
			}
			if err := rt.agg.RestoreSnapshot(m, ck.Accums[i]); err != nil {
				return err
			}
		}
	}

	rt.asyncNow = ck.AsyncNow
	rt.staleSum = ck.StaleSum
	rt.staleCnt = ck.StaleCnt
	rt.asyncSeq = ck.AsyncSeq
	if len(ck.Inflight) > 0 {
		if rt.agg == nil {
			rt.agg = rt.newAgg()
		}
		if rt.asyncStr == nil {
			rt.asyncStr = par.NewTaskStream(rt.streamWindow())
		}
		byID := make(map[int]*model.Model, len(rt.suite))
		for _, m := range rt.suite {
			byID[m.ID] = m
		}
		for _, m := range rt.suite {
			m.Params()
			m.ParamCount()
		}
		for i := range ck.Inflight {
			f := &ck.Inflight[i]
			m := byID[f.ModelID]
			if m == nil {
				return fmt.Errorf("%w: in-flight dispatch for unknown model %d",
					ErrCkptCorrupt, f.ModelID)
			}
			// The snapshot decodes into a throwaway ID scope — it is a
			// training source, not a suite member — but keeps the live
			// model's ID so the session and upload pools key it together
			// with the synchronous path.
			src, err := model.UnmarshalModelScoped(f.SrcBlob, model.NewIDGen())
			if err != nil {
				return fmt.Errorf("fl: checkpoint in-flight model %d: %w", i, err)
			}
			src.ID = m.ID
			src.Params()
			src.ParamCount()
			at := &asyncTask{
				slot:       roundTask{client: f.Client, m: m, src: src},
				version:    f.Version,
				seq:        f.Seq,
				dispatchAt: f.DispatchAt,
			}
			// Arrival is a pure function of (version, client, model), so
			// it is recomputed rather than stored; the interrupted run's
			// training itself is redone deterministically from the
			// snapshot weights.
			at.arrival = f.DispatchAt + rt.attemptChain(f.Version, f.Client, m)
			slot := &at.slot
			version := at.version
			at.tk = rt.asyncStr.Go(func() { rt.trainTask(version, 0, slot) })
			rt.inflight = append(rt.inflight, at)
		}
	}

	rt.res = ck.Res
	rt.bestAcc = ck.BestAcc
	rt.stall = ck.Stall
	rt.nextRound = ck.Round
	rt.resumed = true
	return nil
}

// Resume restores a checkpoint and continues the run to completion.
func (rt *Runtime) Resume(b []byte) (Result, error) {
	if err := rt.Restore(b); err != nil {
		return Result{}, err
	}
	return rt.Run(), nil
}

// cloneResult deep-copies a Result, preserving nil-ness of every slice
// and map so a restored Result compares reflect.DeepEqual to the live
// one it was captured from.
func cloneResult(r *Result) Result {
	out := *r
	out.ClientAcc = append([]float64(nil), r.ClientAcc...)
	out.CostCurve.X = append([]float64(nil), r.CostCurve.X...)
	out.CostCurve.Y = append([]float64(nil), r.CostCurve.Y...)
	out.RoundTimes = append([]float64(nil), r.RoundTimes...)
	out.SuiteArch = append([]string(nil), r.SuiteArch...)
	out.SuiteMACs = append([]float64(nil), r.SuiteMACs...)
	out.BestModelMACs = append([]float64(nil), r.BestModelMACs...)
	if r.Log != nil {
		out.Log = make([]RoundLog, len(r.Log))
		copy(out.Log, r.Log)
		for i := range out.Log {
			if src := r.Log[i].UpdatesPerModel; src != nil {
				cp := make(map[int]int, len(src))
				for k, v := range src {
					cp[k] = v
				}
				out.Log[i].UpdatesPerModel = cp
			}
		}
	}
	return out
}
