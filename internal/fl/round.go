package fl

import (
	"cmp"
	"slices"

	"fedtrans/internal/assign"
	"fedtrans/internal/chaos"
	"fedtrans/internal/device"
	"fedtrans/internal/model"
	"fedtrans/internal/par"
)

// This file is the round engine, the one loop every round runs through:
// dispatch → settle → commit. A round tops the in-flight set up to
// roundPolicy.inFlight dispatches, picks its commit set, folds it into
// the streaming accumulator, and runs the post-fold stages. With
// MaxStaleness ≥ 1 this is FedBuff-style asynchronous training: round r+1
// begins while round-r stragglers still train, an update folds up to
// MaxStaleness rounds after its dispatch (discounted by 1/√(1+s) at the
// accumulator), and a simulated device-trace clock times the rounds. A
// synchronous round is the same loop at staleness 0, where every dispatch
// is due in the round that made it.
//
// Determinism: the commit schedule is computed before any training result
// is read. A dispatch's arrival time is a pure function of (version,
// client, model) — device-trace training time plus chaos draws, both
// seeded hashes — so each round's commit set and fold order are identical
// for any worker scheduling, including fully serial execution.

// roundPolicy is what sets a synchronous round (MaxStaleness 0) apart from
// an asynchronous one; New derives it once from Config. byArrival and
// abortEarly keep a synchronous round's numbers what they were when it
// ran a loop of its own.
type roundPolicy struct {
	// inFlight is how many clients train at once: AsyncConcurrency, or
	// every participant of a synchronous round.
	inFlight int
	// window bounds the updates trained but not yet folded: streamWindow()
	// when synchronous, so a round's peak update memory does not grow with
	// ClientsPerRound; inFlight when asynchronous, where a dispatch may
	// train ahead of the round that folds it.
	window int
	// byArrival folds the commit set in predicted (arrival, seq) order and
	// times the round by the virtual clock's advance to those arrivals.
	// Otherwise the set folds in selection order and the round lasts as
	// long as its longest settled attempt chain, which unlike the
	// prediction charges nothing for a zero-sample client or a transport
	// error.
	byArrival bool
	// abortEarly stops folding as soon as the clients left cannot reach
	// quorum; otherwise the whole commit set settles first.
	abortEarly bool
}

// newPolicy derives the round policy from cfg.
func newPolicy(cfg *Config) roundPolicy {
	if cfg.MaxStaleness <= 0 {
		return roundPolicy{inFlight: cfg.ClientsPerRound, window: streamWindow(), abortEarly: true}
	}
	c := cfg.AsyncConcurrency
	if c <= 0 {
		c = 2 * cfg.ClientsPerRound
	}
	c = max(c, cfg.ClientsPerRound, 1)
	return roundPolicy{inFlight: c, window: c, byArrival: true}
}

// schedule is the engine's checkpointed scheduler state: the virtual
// clock, the dispatch sequence counter (the fold order's tiebreak), and
// the staleness tallies behind Result.MeanStaleness. A synchronous run's
// clock and staleness sum stay 0.
type schedule struct {
	now                float64
	seq                int
	staleSum, staleCnt int64
}

// flight is one dispatched client: its training slot, the scheduling
// state the commit policy sorts on, and the task that trains it. Records
// are recycled with their tasks, so a dispatch allocates nothing in
// steady state.
type flight struct {
	slot       roundTask
	version    int     // server round at dispatch (the model version trained)
	seq        int     // dispatch sequence number, the total-order tiebreak
	dispatchAt float64 // virtual clock at dispatch
	arrival    float64 // dispatchAt + the attempt chain's predicted duration
	committed  bool
	tk         par.Task
}

// attemptOutcome mirrors commitAttempt's timing and success logic
// without running any training: chaos draws and device-trace times are
// pure functions of (version, client, attempt), so the coordinator can
// schedule commits by arrival time while the actual training is still
// in flight.
func (rt *Runtime) attemptOutcome(version, attempt int, u *roundTask) (t float64, ok bool) {
	cfg, m := rt.cfg, u.m
	fault := rt.chaos.Fault(version, u.client, attempt)
	if fault == chaos.Crash {
		return 0, false
	}
	t = u.dev.TrainingTime(m.MACsPerSample(), cfg.Local.Steps, cfg.Local.BatchSize, m.Bytes()) +
		rt.chaos.Delay(version, u.client, attempt)
	// Corrupt and non-finite uploads are rejected at the accumulator
	// after their full simulated duration elapsed — the bytes traveled.
	return t, fault == chaos.None
}

// attemptChain simulates a dispatch's full retry chain — identical to
// settle's — and returns the total simulated time until the update
// arrives (or the coordinator gives up on the client).
func (rt *Runtime) attemptChain(version int, u *roundTask) float64 {
	t, ok := rt.attemptOutcome(version, 0, u)
	elapsed := t
	for attempt := 1; !ok && attempt <= rt.cfg.RetryBudget; attempt++ {
		t, ok = rt.attemptOutcome(version, attempt, u)
		elapsed += t
	}
	return elapsed
}

// snapSlot holds one model version's read-only weights, shared by every
// flight dispatched with that version: a client trains from the weights
// it downloaded, not the weights the server has since moved to. refs
// counts the flights that hold it. Every snapSlot is a ring slot (slot).
type snapSlot struct {
	m    *model.Model
	refs int
}

// slot returns model id's ring slot for version v. Each model ID owns a
// ring of MaxStaleness+1 slots indexed by version, made on first use:
// every flight of version v retires by round v+MaxStaleness, so the slot
// version v+MaxStaleness+1 reuses has no holder left.
func (rt *Runtime) slot(id, v int) *snapSlot {
	ring := rt.snaps[id]
	if ring == nil {
		ring = make([]snapSlot, max(rt.cfg.MaxStaleness, 0)+1)
		rt.snaps[id] = ring
	}
	return &ring[v%len(ring)]
}

// snapOf returns the snapshot of m's weights at version round, with one
// more reference. The first dispatch of a version re-arms its slot in
// place (COW, O(headers), no allocation), or clones m on the slot's first
// use; dispatches come before any fold of the round, so the later ones
// share the same weights. Runs on the consumer only.
func (rt *Runtime) snapOf(m *model.Model, round int) *snapSlot {
	s := rt.slot(m.ID, round)
	switch {
	case s.m == nil:
		s.m = primed(m.Clone())
	case s.refs == 0:
		s.m.ShareWeightsFrom(m)
	}
	s.refs++
	return s
}

// drop releases one flight's reference. The last one drops the
// snapshot's interest in every parameter buffer, so a retired version
// never forces Finalize or SoftAggregate to detach-copy the live model;
// the headers stay allocated for snapOf to re-arm.
func (s *snapSlot) drop() {
	if s.refs--; s.refs == 0 {
		for _, p := range s.m.Params() {
			p.Release()
		}
	}
}

// flightGet returns a recycled dispatch record, or a new one whose task
// trains its slot's first attempt.
func (rt *Runtime) flightGet() *flight {
	if n := len(rt.flightFree); n > 0 {
		f := rt.flightFree[n-1]
		rt.flightFree = rt.flightFree[:n-1]
		return f
	}
	f := &flight{}
	f.tk.Fn = func() { rt.trainTask(f.version, 0, &f.slot) }
	return f
}

// dispatch sends model m to a client with device dev: it takes a
// reference to m's snapshot at this version and records the flight. It
// submits the client's first training attempt too, unless queue is false
// and the caller submits it later.
func (rt *Runtime) dispatch(round, client int, m *model.Model, dev device.Device, queue bool) {
	f := rt.flightGet()
	f.slot = roundTask{client: client, m: m, dev: dev, snap: rt.snapOf(m, round)}
	sc := &rt.sched
	f.version, f.seq, f.dispatchAt = round, sc.seq, sc.now
	sc.seq++
	rt.record(f)
	if queue {
		rt.stream.Submit(&f.tk)
	}
}

// record predicts a dispatch's arrival, when the policy reads it, and
// adds it to the in-flight set.
func (rt *Runtime) record(f *flight) {
	f.arrival = f.dispatchAt
	if rt.pol.byArrival {
		f.arrival += rt.attemptChain(f.version, &f.slot)
	}
	rt.inflight = append(rt.inflight, f)
}

// trainLargestFirst submits the round's dispatches in stable descending
// MACsPerSample and waits them in that order, so the consumer and the
// stream's worker each take the largest task left (Graham's LPT list
// schedule) and the round does not end on one large task while the
// other core idles. Waiting ahead of the fold changes no number: the
// fold reads the results in its own order, and waiting a consumed task
// again is a no-op.
func (rt *Runtime) trainLargestFirst() {
	order := append(rt.sortBuf[:0], rt.inflight...)
	rt.sortBuf = order
	slices.SortStableFunc(order, func(a, b *flight) int {
		return cmp.Compare(b.slot.m.MACsPerSample(), a.slot.m.MACsPerSample())
	})
	for _, f := range order {
		rt.stream.Submit(&f.tk)
	}
	for _, f := range order {
		rt.stream.Wait(&f.tk)
	}
}

// retire returns a dispatch's pieces to their pools: its task (awaited,
// or withdrawn if it never started), upload buffers, snapshot reference
// and the record itself.
func (rt *Runtime) retire(f *flight) {
	rt.stream.Drop(&f.tk)
	rt.releaseUploads(&f.slot)
	f.slot.snap.drop()
	f.slot.snap = nil
	rt.flightFree = append(rt.flightFree, f)
}

// runRound executes one FL round and returns the weighted mean training
// loss, the simulated round time, the per-model update counts, and
// whether the round committed.
//
// It tops the in-flight set up to the policy's inFlight with fresh
// dispatches, then picks the commit set: every dispatch that would exceed
// the staleness bound if it stayed in flight past this round (at
// staleness 0, all of them), then the earliest arrivals up to
// ClientsPerRound. As each committed client's training completes, the
// stream hands it to the consumer in the fold order, where its update is
// folded straight into the per-model accumulator and its upload
// buffers go back to the pool. So the coordinator holds O(window) updates
// at peak, and the post-fold stages (FedAvg finalize, Yogi, activeness,
// joint utility, soft aggregation) read accumulator state plus per-client
// scalars rather than retained weight tensors.
//
// Fault tolerance: each attempt may fail (injected chaos fault, corrupt
// or non-finite upload rejected at the accumulator boundary, or transport
// error). Failed attempts are retried up to RetryBudget times, on the
// consumer with the dispatch version's seeds, so the retry order — and
// every rng draw — is deterministic. When Quorum
// is set, the round commits only if enough participants fold; otherwise
// the partial aggregate is discarded and the suite is left untouched.
func (rt *Runtime) runRound(round int, res *Result) (float64, float64, map[int]int, bool) {
	cfg, pol, sc := &rt.cfg, &rt.pol, &rt.sched

	// Top-up selection over the clients not already in flight (a client
	// trains one dispatch at a time, so the in-flight IDs are distinct):
	// ranks are drawn over the free clients and mapped through the sorted
	// in-flight IDs, with no list of the free clients. A synchronous round
	// has no client in flight and draws over the whole population. Each
	// selected client some model fits is assigned one and dispatched;
	// assignment draws consume the round RNG in selection order.
	//
	// A synchronous round whose dispatches all fit the stream window
	// trains them largest first once every one is assigned
	// (trainLargestFirst). Any other round submits each dispatch as it is
	// made: deferring a round larger than the window, or an asynchronous
	// one, would idle the worker through the Sample loop.
	var selected []int
	if want := pol.inFlight - len(rt.inflight); want > 0 {
		busy := rt.busyIDs[:0]
		for _, f := range rt.inflight {
			busy = append(busy, f.slot.client)
		}
		slices.Sort(busy)
		rt.busyIDs = busy
		selected = selectFree(rt.ds.Len(), busy, want, rt.rng)
	}
	lpt := cfg.MaxStaleness <= 0 && len(selected) <= pol.window
	for _, c := range selected {
		dev := rt.trace.At(c)
		rt.compatBuf = assign.CompatibleInto(rt.compatBuf[:0], rt.suite, dev.CapacityMACs)
		if m := rt.mgr.Sample(c, rt.compatBuf, rt.rng); m != nil {
			rt.dispatch(round, c, m, dev, !lpt)
		}
	}
	if lpt {
		rt.trainLargestFirst()
	}

	order := rt.inflight
	if pol.byArrival {
		order = append(rt.sortBuf[:0], rt.inflight...)
		rt.sortBuf = order
		slices.SortFunc(order, func(a, b *flight) int {
			return cmp.Or(cmp.Compare(a.arrival, b.arrival), cmp.Compare(a.seq, b.seq))
		})
	}
	commitN := 0
	for _, f := range order {
		f.committed = round-f.version >= cfg.MaxStaleness
		if f.committed {
			commitN++
		}
	}
	for _, f := range order {
		if commitN >= cfg.ClientsPerRound {
			break
		}
		if !f.committed {
			f.committed = true
			commitN++
		}
	}

	// Fold the commit set. Quorum is measured against everyone the round
	// settles. An update that arrived while the server was busy with
	// earlier rounds costs no extra wall clock.
	need := rt.quorumNeed(commitN)
	prevNow, longest := sc.now, 0.0
	folded, left, lost := 0, commitN, false
	committed := rt.commitBuf[:0]
	for _, f := range order {
		if !f.committed || lost {
			continue
		}
		left--
		rt.stream.Wait(&f.tk)
		u := &f.slot
		u.stale = round - f.version
		elapsed, ok := rt.settle(f.version, u, res)
		longest = max(longest, elapsed)
		sc.now = max(sc.now, f.arrival)
		if ok {
			folded++
			sc.staleSum += int64(u.stale)
			sc.staleCnt++
			committed = append(committed, u)
		}
		lost = pol.abortEarly && !ok && folded+left < need
	}
	rt.commitBuf = committed
	roundTime := longest
	if pol.byArrival {
		roundTime = sc.now - prevNow
	}

	// Retire the commit set, keeping the rest in dispatch order.
	keep := rt.inflight[:0]
	for _, f := range rt.inflight {
		if f.committed {
			rt.retire(f)
		} else {
			keep = append(keep, f)
		}
	}
	clear(rt.inflight[len(keep):])
	rt.inflight = keep

	if folded < need {
		// Quorum missed: discard the partial aggregate; weights, DoC and
		// utilities stay exactly as they were before the round.
		rt.agg.Abort()
		res.AbortedRounds++
		return 0, roundTime, nil, false
	}
	roundLoss, perModel := rt.applyCommitted(round, committed, res)
	return roundLoss, roundTime, perModel, true
}

// drain retires every dispatch still in flight when the round loop ends:
// the run is over, so their training is withdrawn or discarded (FedBuff
// drops in-flight work at termination), their buffers go back to the
// pools, and every snapshot's last reference drops its buffers.
func (rt *Runtime) drain() {
	for _, f := range rt.inflight {
		rt.retire(f)
	}
	clear(rt.inflight)
	rt.inflight = rt.inflight[:0]
}
