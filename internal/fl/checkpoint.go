package fl

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"

	"fedtrans/internal/assign"
	"fedtrans/internal/codec"
	"fedtrans/internal/model"
	"fedtrans/internal/transform"
	"fedtrans/internal/wire"
)

// Checkpoint is a complete, deterministic snapshot of a Runtime between
// rounds: resuming from it reproduces the uninterrupted run bit for bit.
// It captures everything a round can read — the suite weights plus the
// lineage metadata the wire format deliberately drops (a resumed suite
// must keep transforming and computing similarity exactly as before),
// the ID-scope counters, the rng position as a draw count, the utilities
// of the clients that hold any, the DoC and activeness windows,
// server-optimizer state, the round engine's scheduler state (virtual
// clock, counters, the in-flight dispatches and the weights of each
// model version they train from, which resume retrains
// deterministically), and the accumulated Result. Aggregator state is
// not part of it: a checkpoint is taken at a round boundary, where every
// accumulator has been finalized or aborted. Nothing in it grows with
// clients that never trained.
//
// # Wire format (FTCP v4)
//
//	"FTCP" | u32 version=4 | body | u32 CRC-32 of magic..body
//
// The body is this struct's fields in the order (*Checkpoint).walk
// lists them — the one statement of the layout, run by the encoder and
// the decoder alike — with Res last. The per-model Blob payloads are
// internal/codec weight blobs behind a JSON header, Snaps' Weights bare
// ones. Byte order, the slice and map encodings, the envelope and the
// decoder's error and allocation contract are internal/wire's. The lists
// keyed by an ID (Utilities, Act, Yogi, Snaps, Inflight) must ascend,
// every client named must be below Clients, and a utility entry must
// hold a model. Together these make the encoding canonical: any blob
// that decodes re-encodes to the identical bytes (the
// FuzzCheckpointDecode invariant). v4 writes each in-flight model
// version's weights once, where v3 wrote a model blob per in-flight
// dispatch; v1–v3 blobs fail with ErrCkptVersion.
type Checkpoint struct {
	// Round is the round index resume continues at: the number of
	// fully completed rounds, or Config.Rounds once the convergence rule
	// has ended the run (Res.RoundsRun keeps the rounds it ran), so a
	// resumed finished run trains no further round.
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
	// and rejects a mismatch with ErrGeometryMismatch. A larger client
	// population than Clients is allowed: late joiners start at zero
	// utility.
	Clients    int
	FeatureDim int
	Classes    int
	// Models is the suite in creation order: serialized weights plus
	// the lineage metadata MarshalBinary drops.
	Models []CkptModel
	// Utilities is the Client Manager's utility table: one entry per
	// client that stores a utility, ascending by client, each listing
	// its stored (model, value) pairs ascending by model. A stored 0 is
	// listed; a utility never stored is not.
	Utilities []assign.ClientUtility
	// DoCLosses is the DoC tracker's loss window.
	DoCLosses []float64
	// Act holds each model's activeness windows, ascending by model ID.
	Act []CkptAct
	// Yogi holds the server optimizer's moment vectors, ascending by
	// slot; nil when no server optimizer state exists.
	Yogi []CkptYogi
	// AsyncNow/StaleSum/StaleCnt/AsyncSeq are the round engine's virtual
	// clock, staleness tallies, and dispatch sequence counter. A
	// synchronous run's clock and staleness sum stay 0.
	AsyncNow float64
	StaleSum int64
	StaleCnt int64
	AsyncSeq int
	// Snaps holds each in-flight (model, version)'s weights, ascending.
	Snaps []CkptSnap
	// Inflight is the asynchronous in-flight dispatch list in dispatch
	// (sequence) order; nil for synchronous runs and whenever no client
	// is mid-training at the checkpoint boundary.
	Inflight []CkptInflight
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
// training which model version (from its Snaps entry), dispatched when.
type CkptInflight struct {
	Client     int
	ModelID    int
	Version    int
	Seq        int
	DispatchAt float64
}

// CkptSnap is model ModelID's weights at version Version: a bit-lossless
// internal/codec blob of its Params, as a model ID keeps its architecture.
type CkptSnap struct {
	ModelID int
	Version int
	Weights []byte
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

const (
	ckptMagic   = "FTCP"
	ckptVersion = 4
)

var ckptErrs = wire.Errs{Magic: ErrCkptMagic, Checksum: ErrCkptChecksum, Truncated: ErrCkptTruncated, Corrupt: ErrCkptCorrupt}

// walk is the FTCP v4 body after the version word: the one statement of
// the field order, run by EncodeCheckpoint and DecodeCheckpoint alike.
// The number beside each slice is the least one element occupies on the
// wire (what bounds a decode's allocations).
func (ck *Checkpoint) walk(c wire.Coder) {
	c.Int(&ck.Round)
	c.U64(&ck.RNGCount)
	c.F64(&ck.BestAcc)
	c.Int(&ck.Stall)
	c.I64(&ck.ModelCtr)
	c.I64(&ck.CellCtr)
	c.Int(&ck.Clients)
	c.Int(&ck.FeatureDim)
	c.Int(&ck.Classes)

	wire.Slice(c, &ck.Models, 32, func(m *CkptModel) {
		c.Bytes(&m.Blob)
		c.Int(&m.ID)
		c.Int(&m.ParentID)
		c.Int(&m.BornRound)
		wire.Slice(c, &m.Cells, 25, func(cell *CkptCell) {
			c.I64(&cell.ID)
			c.I64(&cell.AncestorID)
			c.F64(&cell.InheritedFrac)
			c.Bool(&cell.WidenedLast)
		})
	})

	// A client's utilities travel as a map of model ID to value would
	// (wire.SortedMap): a count, then (i64 model, f64 value) pairs with
	// the models strictly ascending. Decoding carves every client's list
	// from one arena.
	var arena []assign.Utility
	utility := func(e *assign.Utility) {
		c.Int(&e.Model)
		c.F64(&e.Value)
	}
	wire.Slice(c, &ck.Utilities, 12, func(u *assign.ClientUtility) {
		c.Int(&u.Client)
		wire.SliceIn(c, &u.U, &arena, 16, utility)
		if u.Client < 0 || u.Client >= ck.Clients || len(u.U) == 0 {
			c.Corruptf("utility entry for client %d of %d holds %d models", u.Client, ck.Clients, len(u.U))
		}
		ascending(c, u.U, "utility model IDs", func(a, b *assign.Utility) int { return cmp.Compare(a.Model, b.Model) })
	})
	ascending(c, ck.Utilities, "utility client IDs", func(a, b *assign.ClientUtility) int { return cmp.Compare(a.Client, b.Client) })
	c.F64s(&ck.DoCLosses)

	wire.Slice(c, &ck.Act, 12, func(a *CkptAct) {
		c.Int(&a.ModelID)
		wire.SortedMap(c, &a.Hist, 4, c.F64s)
	})
	ascending(c, ck.Act, "activeness model IDs", func(a, b *CkptAct) int { return cmp.Compare(a.ModelID, b.ModelID) })

	wire.Slice(c, &ck.Yogi, 16, func(y *CkptYogi) {
		c.Int(&y.Slot)
		c.F64s(&y.M)
		c.F64s(&y.V)
	})
	ascending(c, ck.Yogi, "yogi slots", func(a, b *CkptYogi) int { return cmp.Compare(a.Slot, b.Slot) })

	c.F64(&ck.AsyncNow)
	c.I64(&ck.StaleSum)
	c.I64(&ck.StaleCnt)
	c.Int(&ck.AsyncSeq)
	wire.Slice(c, &ck.Snaps, 20, func(s *CkptSnap) {
		c.Int(&s.ModelID)
		c.Int(&s.Version)
		c.Bytes(&s.Weights)
	})
	ascending(c, ck.Snaps, "snapshot (model, version) pairs", func(a, b *CkptSnap) int {
		return cmp.Or(cmp.Compare(a.ModelID, b.ModelID), cmp.Compare(a.Version, b.Version))
	})
	wire.Slice(c, &ck.Inflight, 40, func(f *CkptInflight) {
		c.Int(&f.Client)
		c.Int(&f.ModelID)
		c.Int(&f.Version)
		c.Int(&f.Seq)
		c.F64(&f.DispatchAt)
		if f.Client < 0 || f.Client >= ck.Clients {
			c.Corruptf("in-flight client %d of %d", f.Client, ck.Clients)
		}
	})
	ascending(c, ck.Inflight, "in-flight sequence numbers", func(a, b *CkptInflight) int { return cmp.Compare(a.Seq, b.Seq) })

	r := &ck.Res
	c.F64s(&r.ClientAcc)
	c.F64(&r.MeanAcc)
	c.F64(&r.Box.Min)
	c.F64(&r.Box.Q1)
	c.F64(&r.Box.Median)
	c.F64(&r.Box.Q3)
	c.F64(&r.Box.Max)
	c.F64(&r.Box.Mean)
	c.F64(&r.Costs.TrainMACs)
	c.I64(&r.Costs.NetworkBytes)
	c.I64(&r.Costs.StorageBytes)
	wire.Slice(c, &r.SuiteArch, 4, c.Str)
	c.F64s(&r.SuiteMACs)
	c.Int(&r.RoundsRun)
	c.I64(&r.Overhead.UtilityUpdates)
	c.I64(&r.Overhead.DoCUpdates)
	c.I64(&r.Overhead.Transforms)
	c.F64s(&r.BestModelMACs)
	c.Int(&r.Failures)
	c.Int(&r.Retries)
	c.Int(&r.AbortedRounds)
	c.F64(&r.MeanStaleness)
	wire.Slice(c, &r.Log, 76, func(l *RoundLog) {
		c.Int(&l.Round)
		c.Int(&l.Updates)
		c.F64(&l.MeanLoss)
		c.F64(&l.RoundTime)
		c.F64(&l.TrainMACs)
		wire.Map(c, &l.UpdatesPerModel, 8, c.Int)
		c.Bool(&l.Transformed)
		c.Int(&l.SuiteSize)
		c.Int(&l.Failures)
		c.Int(&l.Retries)
		c.Bool(&l.Committed)
		c.Bool(&l.Evaluated)
		c.F64(&l.MeanAcc)
	})
}

// ascending fails a decode whose list is not in strictly ascending
// order by compare — the order every writer emits, and what makes the
// encoding of a given state unique.
func ascending[T any](c wire.Coder, xs []T, what string, compare func(a, b *T) int) {
	for i := 1; i < len(xs); i++ {
		if compare(&xs[i-1], &xs[i]) >= 0 {
			c.Corruptf("%s not ascending", what)
		}
	}
}

// EncodeCheckpoint serializes a checkpoint into the canonical FTCP v4
// byte layout described on Checkpoint, into one buffer allocated at the
// size a counting pass over the same walk measures.
func EncodeCheckpoint(ck *Checkpoint) ([]byte, error) {
	size := wire.Counting()
	ck.walk(wire.Encoding(&size))
	e := wire.Enc{B: append(make([]byte, 0, len(ckptMagic)+4+size.N+4), ckptMagic...)}
	e.U32(ckptVersion)
	ck.walk(wire.Encoding(&e))
	return wire.Seal(e.B, 0), nil
}

// DecodeCheckpoint parses and validates an FTCP v4 checkpoint. The
// decoder is strict: checksum, bounds, canonical key order, and exact
// length are all enforced, and it reads the fields through the same
// walk that wrote them, so any successfully decoded checkpoint
// re-encodes to identical bytes.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	d, err := wire.Open(b, ckptMagic, &ckptErrs)
	if err != nil {
		return nil, err
	}
	if v := d.U32(); v != ckptVersion {
		return nil, fmt.Errorf("%w: %d", ErrCkptVersion, v)
	}
	ck := &Checkpoint{}
	ck.walk(wire.Decoding(&d))
	if err := d.Done(); err != nil {
		return nil, err
	}
	return ck, nil
}

// ckptSnap is the cheap synchronous part of a checkpoint: COW model
// clones plus deep copies of the scalar state. Serialization (encode)
// happens later, off the round critical path.
type ckptSnap struct {
	ck     Checkpoint
	models []*model.Model // live COW clones, parallel to ck.Models
	srcs   []*model.Model // in-flight version snapshots, parallel to ck.Snaps
}

// snapshot captures the runtime's state after `round` completed rounds.
// It must run on the round loop (nothing else may mutate the runtime),
// but costs only O(tensor headers): weight buffers are shared
// copy-on-write with the live suite and physically copied only if the
// next rounds overwrite them before the background encode finishes.
func (rt *Runtime) snapshot(round int) *ckptSnap {
	s := &ckptSnap{}
	ck := &s.ck
	ck.Round, ck.RNGCount, ck.BestAcc, ck.Stall = round, rt.rngSrc.n, rt.bestAcc, rt.stall
	ck.ModelCtr, ck.CellCtr = rt.suite[0].IDScope().Counters()
	ck.Clients, ck.FeatureDim, ck.Classes = rt.ds.Len(), rt.ds.FeatureDim, rt.ds.Classes
	for _, m := range rt.suite {
		cm := CkptModel{ID: m.ID, ParentID: m.ParentID, BornRound: m.BornRound}
		for i := range m.Cells {
			c := &m.Cells[i]
			cm.Cells = append(cm.Cells, CkptCell{c.ID, c.AncestorID, c.InheritedFrac, c.WidenedLast})
		}
		ck.Models = append(ck.Models, cm)
		s.models = append(s.models, m.Clone())
	}
	ck.Utilities = rt.mgr.ExportUtilities()
	ck.DoCLosses = rt.doc.Snapshot()
	for _, id := range slices.Sorted(maps.Keys(rt.act)) {
		ck.Act = append(ck.Act, CkptAct{ModelID: id, Hist: rt.act[id].Snapshot()})
	}
	if rt.serverOpt != nil {
		for _, slot := range rt.serverOpt.y.Slots() {
			m, v := rt.serverOpt.y.State(slot)
			ck.Yogi = append(ck.Yogi, CkptYogi{Slot: slot, M: m, V: v})
		}
	}
	ck.AsyncNow, ck.StaleSum, ck.StaleCnt, ck.AsyncSeq = rt.sched.now, rt.sched.staleSum, rt.sched.staleCnt, rt.sched.seq
	for _, at := range rt.inflight {
		ck.Inflight = append(ck.Inflight, CkptInflight{at.slot.client, at.slot.m.ID, at.version, at.seq, at.dispatchAt})
	}
	// At a round boundary flights hold versions round−S … round−1, a ring
	// slot each, read-only: cloning one is race-free against its training.
	for _, id := range slices.Sorted(maps.Keys(rt.snaps)) {
		for v := max(round-rt.cfg.MaxStaleness, 0); v < round; v++ {
			if sl := rt.slot(id, v); sl.refs > 0 {
				ck.Snaps = append(ck.Snaps, CkptSnap{ModelID: id, Version: v})
				s.srcs = append(s.srcs, sl.m.Clone())
			}
		}
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
		m.Release()
	}
	s.models = nil
	for i, m := range s.srcs {
		s.ck.Snaps[i].Weights = codec.AppendEncode(nil, m.Params())
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
		if err == nil {
			sink(round, blob)
		} else if rt.ckptErr == nil {
			rt.ckptErr = err
		}
	}()
}

// Checkpoint synchronously captures and encodes the runtime's current
// state; a resume continues at round rt.nextRound.
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
	if len(ck.Models) == 0 {
		return fmt.Errorf("%w: no models", ErrCkptCorrupt)
	}

	// Geometry gate: the suite's weights are shaped by the dataset the
	// run trained on. Feature dimension and class count must match
	// exactly; the client population may only grow (late joiners start
	// at zero utility).
	if ck.FeatureDim != rt.ds.FeatureDim || ck.Classes != rt.ds.Classes {
		return fmt.Errorf("%w: checkpoint trained on %d features / %d classes, dataset has %d / %d",
			ErrGeometryMismatch, ck.FeatureDim, ck.Classes, rt.ds.FeatureDim, rt.ds.Classes)
	}
	if ck.Clients > rt.ds.Len() {
		return fmt.Errorf("%w: checkpoint covers %d clients, dataset has %d",
			ErrGeometryMismatch, ck.Clients, rt.ds.Len())
	}

	// Rebuild the suite in a fresh ID scope, then overwrite the lineage
	// metadata persistence drops and realign the scope counters so IDs
	// minted after the resume match the uninterrupted run.
	gen := model.NewIDGen()
	suite := make([]*model.Model, 0, len(ck.Models))
	byID := make(map[int]*model.Model, len(ck.Models))
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
		for j, c := range cm.Cells {
			mc := &m.Cells[j]
			mc.ID, mc.AncestorID, mc.InheritedFrac, mc.WidenedLast = c.ID, c.AncestorID, c.InheritedFrac, c.WidenedLast
		}
		suite = append(suite, m)
		byID[m.ID] = m
	}
	gen.SetCounters(ck.ModelCtr, ck.CellCtr)

	// Each snapshot decodes into a clone of its suite model (DecodeInto
	// detaches each buffer it writes) for its version's ring slot; no
	// version passes at S = 0. Every flight must hold a snapshot and every
	// snapshot a flight, all checked before the runtime changes.
	lo, slots := max(ck.Round-rt.cfg.MaxStaleness, 0), make(map[[2]int]*snapSlot, len(ck.Snaps))
	for _, sn := range ck.Snaps {
		m := byID[sn.ModelID]
		if m == nil || sn.Version < lo || sn.Version >= ck.Round {
			return fmt.Errorf("%w: snapshot of model %d at version %d, round %d", ErrCkptCorrupt, sn.ModelID, sn.Version, ck.Round)
		}
		src := m.Clone()
		if err := codec.DecodeInto(src.Params(), sn.Weights); err != nil {
			return fmt.Errorf("fl: checkpoint snapshot of model %d at version %d: %w", sn.ModelID, sn.Version, err)
		}
		slots[[2]int{sn.ModelID, sn.Version}] = &snapSlot{m: primed(src)}
	}
	for _, f := range ck.Inflight {
		s := slots[[2]int{f.ModelID, f.Version}]
		if s == nil {
			return fmt.Errorf("%w: in-flight dispatch of model %d at version %d has no snapshot", ErrCkptCorrupt, f.ModelID, f.Version)
		}
		s.refs++
	}
	for _, sn := range ck.Snaps {
		if slots[[2]int{sn.ModelID, sn.Version}].refs == 0 {
			return fmt.Errorf("%w: snapshot of model %d at version %d serves no dispatch", ErrCkptCorrupt, sn.ModelID, sn.Version)
		}
	}

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

	// Clients the checkpoint does not list, late joiners of a larger
	// resuming population among them, start at zero utility.
	rt.mgr.ImportUtilities(ck.Utilities)
	rt.doc.Restore(ck.DoCLosses)
	rt.act = make(map[int]*transform.ActivenessTracker, len(ck.Act))
	for i := range ck.Act {
		tr := transform.NewActivenessTracker(activenessWindow)
		tr.Restore(ck.Act[i].Hist)
		rt.act[ck.Act[i].ModelID] = tr
	}
	if len(ck.Yogi) > 0 {
		if rt.serverOpt == nil {
			rt.serverOpt = newYogiOpt()
		}
		for i := range ck.Yogi {
			y := &ck.Yogi[i]
			rt.serverOpt.y.SetState(y.Slot, y.M, y.V)
		}
	}
	rt.sched = schedule{now: ck.AsyncNow, seq: ck.AsyncSeq, staleSum: ck.StaleSum, staleCnt: ck.StaleCnt}
	for k, s := range slots {
		*rt.slot(k[0], k[1]) = *s
	}
	for _, f := range ck.Inflight {
		// record recomputes the arrival, a pure function of (version,
		// client, model); training is redone from the snapshot weights.
		at := rt.flightGet()
		at.slot = roundTask{client: f.Client, m: byID[f.ModelID], dev: rt.trace.At(f.Client),
			snap: rt.slot(f.ModelID, f.Version)}
		at.version, at.seq, at.dispatchAt = f.Version, f.Seq, f.DispatchAt
		rt.record(at)
		rt.stream.Submit(&at.tk)
	}

	rt.res, rt.bestAcc, rt.stall, rt.nextRound, rt.resumed = ck.Res, ck.BestAcc, ck.Stall, ck.Round, true
	return nil
}

// cloneResult copies a Result's slices, preserving nil-ness so a
// restored Result compares reflect.DeepEqual to the live one it was
// captured from. A logged round's UpdatesPerModel is never written
// again, so the copy shares it.
func cloneResult(r *Result) Result {
	out := *r
	out.ClientAcc = append([]float64(nil), r.ClientAcc...)
	out.SuiteArch = append([]string(nil), r.SuiteArch...)
	out.SuiteMACs = append([]float64(nil), r.SuiteMACs...)
	out.BestModelMACs = append([]float64(nil), r.BestModelMACs...)
	out.Log = append([]RoundLog(nil), r.Log...)
	return out
}
