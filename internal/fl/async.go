package fl

import (
	"sort"

	"fedtrans/internal/chaos"
	"fedtrans/internal/model"
	"fedtrans/internal/par"
)

// This file is the FedBuff-style staleness-bounded asynchronous round
// loop (Config.MaxStaleness ≥ 1). It replaces the former internal/async
// toy simulator by running the same semantics — constant client
// concurrency, per-update staleness discount, simulated device-trace
// wall clock — through the shared streaming pipeline: par.TaskStream
// for background local training, StreamingFedAvg for accumulator folds,
// and the synchronous path's trainTask/commitAttempt/applyCommitted for
// everything a committed update touches.
//
// Determinism: the commit schedule is computed before any training
// result is read. A dispatch's arrival time is a pure function of
// (version, client, model) — device-trace training time plus chaos
// draws, both seeded hashes — so each round's commit set and fold order
// ((arrival, seq), a total order) are identical for any worker
// scheduling, including fully serial execution.

// asyncTask is one dispatched client: its training slot plus the
// scheduling state the commit policy sorts on.
type asyncTask struct {
	slot       roundTask
	version    int     // server round at dispatch (the model version trained)
	seq        int     // global dispatch sequence, the total-order tiebreak
	dispatchAt float64 // virtual clock at dispatch
	arrival    float64 // dispatchAt + the attempt chain's simulated duration
	tk         *par.Task
	committed  bool
}

// asyncConcurrency resolves Config.AsyncConcurrency: the constant
// number of clients kept training at once.
func (rt *Runtime) asyncConcurrency() int {
	cfg := rt.cfg
	c := cfg.AsyncConcurrency
	if c <= 0 {
		c = 2 * cfg.ClientsPerRound
	}
	if c < cfg.ClientsPerRound {
		c = cfg.ClientsPerRound
	}
	if c < 1 {
		c = 1
	}
	return c
}

// attemptOutcome mirrors commitAttempt's timing and success logic
// without running any training: chaos draws and device-trace times are
// pure functions of (version, client, attempt), so the coordinator can
// schedule commits by arrival time while the actual training is still
// in flight.
func (rt *Runtime) attemptOutcome(version, attempt, client int, m *model.Model) (t float64, ok bool) {
	cfg := rt.cfg
	fault := rt.chaos.Fault(version, client, attempt)
	if fault == chaos.Crash {
		return 0, false
	}
	t = rt.trace.TrainingTime(client, m.MACsPerSample(), cfg.Local.Steps, cfg.Local.BatchSize, m.Bytes()) +
		rt.chaos.Delay(version, client, attempt)
	if cfg.ClientTimeout > 0 && t > cfg.ClientTimeout {
		return cfg.ClientTimeout, false
	}
	// Corrupt and non-finite uploads are rejected at the accumulator
	// after their full simulated duration elapsed — the bytes traveled.
	return t, fault == chaos.None
}

// attemptChain simulates a dispatch's full retry chain — identical to
// the commit-time consume loop — and returns the total simulated time
// until the update arrives (or the coordinator gives up on the client).
func (rt *Runtime) attemptChain(version, client int, m *model.Model) float64 {
	cfg := rt.cfg
	t, ok := rt.attemptOutcome(version, 0, client, m)
	elapsed := t
	for attempt := 1; !ok && attempt <= cfg.RetryBudget; attempt++ {
		if cfg.RetryBackoff > 0 {
			elapsed += cfg.RetryBackoff * float64(int(1)<<(attempt-1))
		}
		t, ok = rt.attemptOutcome(version, attempt, client, m)
		elapsed += t
	}
	return elapsed
}

// snapGet returns a COW snapshot of m's current weights for a dispatch:
// a pooled husk re-armed in place when one is available (zero
// allocations), a fresh clone otherwise. Runs on the consumer only.
func (rt *Runtime) snapGet(m *model.Model) *model.Model {
	if list := rt.snapFree[m.ID]; len(list) > 0 {
		src := list[len(list)-1]
		rt.snapFree[m.ID] = list[:len(list)-1]
		src.ShareWeightsFrom(m)
		return src
	}
	src := m.Clone()
	// Prime the snapshot's lazy caches on the consumer: the background
	// task and a concurrent checkpoint snapshot both read them. Pooled
	// husks keep these caches warm across reuses.
	src.Params()
	src.ParamCount()
	return src
}

// snapPut retires a dispatch snapshot into the husk pool: each
// parameter header drops its buffer interest (so pooled husks never
// force Finalize's copy-on-write detach) but stays allocated for
// snapGet to re-arm.
func (rt *Runtime) snapPut(src *model.Model) {
	for _, p := range src.Params() {
		p.Release()
	}
	if rt.snapFree == nil {
		rt.snapFree = make(map[int][]*model.Model)
	}
	rt.snapFree[src.ID] = append(rt.snapFree[src.ID], src)
}

// taskGet returns a zeroed asyncTask from the freelist, or a new one.
func (rt *Runtime) taskGet() *asyncTask {
	if n := len(rt.atFree); n > 0 {
		at := rt.atFree[n-1]
		rt.atFree = rt.atFree[:n-1]
		*at = asyncTask{}
		return at
	}
	return &asyncTask{}
}

// dispatch snapshots the model's current weights (COW, O(headers)) and
// submits the client's first training attempt to the background task
// stream. The snapshot is what the client trains from: the server may
// move the live weights several rounds ahead before this update folds.
func (rt *Runtime) dispatch(round, client int, m *model.Model) {
	at := rt.taskGet()
	*at = asyncTask{
		slot:       roundTask{client: client, m: m, src: rt.snapGet(m)},
		version:    round,
		seq:        rt.asyncSeq,
		dispatchAt: rt.asyncNow,
	}
	at.arrival = rt.asyncNow + rt.attemptChain(round, client, m)
	rt.asyncSeq++
	slot := &at.slot
	version := at.version
	at.tk = rt.asyncStr.Go(func() { rt.trainTask(version, 0, slot) })
	rt.inflight = append(rt.inflight, at)
}

// runAsyncRound executes one server round of the asynchronous loop:
// top up the in-flight set to AsyncConcurrency fresh dispatches, pick
// the commit set (everything that would exceed the staleness bound if
// deferred, plus the earliest arrivals up to ClientsPerRound), fold it
// in (arrival, seq) order, and advance the virtual clock to the latest
// committed arrival. Rounds therefore never wait for stragglers that
// the staleness budget still covers.
func (rt *Runtime) runAsyncRound(round int, res *Result) (float64, float64, map[int]int, bool) {
	cfg := rt.cfg
	if rt.agg == nil {
		rt.agg = rt.newAgg()
	}
	if rt.asyncStr == nil {
		rt.asyncStr = par.NewTaskStream(streamWindow())
	}
	rt.primeSuite()

	// Deterministic churn step, then top-up selection over the online
	// population excluding clients already in flight — a client trains
	// one dispatch at a time.
	if rt.busyBuf == nil {
		rt.busyBuf = make(map[int]bool)
	}
	for c := range rt.busyBuf {
		delete(rt.busyBuf, c)
	}
	for _, at := range rt.inflight {
		rt.busyBuf[at.slot.client] = true
	}
	rt.activeBuf = rt.activeBuf[:0]
	if rt.churn != nil {
		rt.churn.Step(rt.rng)
		rt.activeBuf = rt.churn.ActiveInto(rt.activeBuf)
	} else {
		for c, n := 0, rt.ds.Len(); c < n; c++ {
			rt.activeBuf = append(rt.activeBuf, c)
		}
	}
	cand := rt.candBuf[:0]
	for _, c := range rt.activeBuf {
		if !rt.busyBuf[c] {
			cand = append(cand, c)
		}
	}
	rt.candBuf = cand

	roundDropouts := 0
	if want := rt.asyncConcurrency() - len(rt.inflight); want > 0 && len(cand) > 0 {
		roundDropouts = rt.assignAll(rt.selectFrom(round, cand, want), res, func(c int, m *model.Model) {
			rt.dispatch(round, c, m)
		})
	}

	// Commit policy: force-commit every dispatch that would exceed the
	// staleness bound if it survived past this round, then fill with the
	// earliest arrivals up to ClientsPerRound total.
	sorted := append(rt.sortBuf[:0], rt.inflight...)
	rt.sortBuf = sorted
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].arrival != sorted[j].arrival {
			return sorted[i].arrival < sorted[j].arrival
		}
		return sorted[i].seq < sorted[j].seq
	})
	commitN := 0
	for _, at := range sorted {
		if round-at.version >= cfg.MaxStaleness {
			at.committed = true
			commitN++
		}
	}
	for _, at := range sorted {
		if commitN >= cfg.ClientsPerRound {
			break
		}
		if !at.committed {
			at.committed = true
			commitN++
		}
	}

	// Fold the commit set in (arrival, seq) order. Retries run inline on
	// the consumer with the dispatch version's seeds, exactly like the
	// synchronous consume loop; the virtual clock advances to each
	// committed arrival (an update that arrived while the server was
	// busy with earlier rounds costs no extra wall clock).
	prevNow := rt.asyncNow
	folded := 0
	committed := rt.commitBuf[:0]
	for _, at := range sorted {
		if !at.committed {
			continue
		}
		rt.asyncStr.Wait(at.tk)
		u := &at.slot
		u.stale = round - at.version
		_, ok := rt.settle(at.version, u, res)
		rt.snapPut(u.src)
		u.src = nil
		if at.arrival > rt.asyncNow {
			rt.asyncNow = at.arrival
		}
		if ok {
			folded++
			rt.staleSum += int64(u.stale)
			rt.staleCnt++
			committed = append(committed, u)
		}
	}
	rt.commitBuf = committed
	roundTime := rt.asyncNow - prevNow

	// Retire the committed dispatches, preserving dispatch order.
	keep := rt.inflight[:0]
	for _, at := range rt.inflight {
		if at.committed {
			// The scheduling record is done; its slot contents were
			// already returned to their pools in the commit loop.
			rt.atFree = append(rt.atFree, at)
			continue
		}
		keep = append(keep, at)
	}
	for i := len(keep); i < len(rt.inflight); i++ {
		rt.inflight[i] = nil
	}
	rt.inflight = keep

	// Quorum over everyone the round settled: the commit set plus this
	// round's dropout draws.
	if folded < rt.quorumNeed(commitN+roundDropouts) {
		rt.agg.Abort()
		res.AbortedRounds++
		return 0, roundTime, nil, false
	}

	roundLoss, perModel := rt.applyCommitted(round, committed, res)
	return roundLoss, roundTime, perModel, true
}

// drainAsync retires every still-in-flight dispatch once the round loop
// ends: the run is over, so training results are discarded (FedBuff
// drops in-flight work at termination), but upload buffers return to
// their pools and the dispatch-time weight snapshots are released.
func (rt *Runtime) drainAsync() {
	for _, at := range rt.inflight {
		rt.asyncStr.Wait(at.tk)
		u := &at.slot
		rt.releaseUploads(u)
		if u.src != nil {
			rt.snapPut(u.src)
			u.src = nil
		}
		rt.atFree = append(rt.atFree, at)
	}
	rt.inflight = rt.inflight[:0]
}
