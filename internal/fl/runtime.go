package fl

import (
	"errors"
	"math"
	"math/rand"
	stdruntime "runtime"
	"sort"
	"sync"

	"fedtrans/internal/aggregate"
	"fedtrans/internal/assign"
	"fedtrans/internal/chaos"
	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/metrics"
	"fedtrans/internal/model"
	"fedtrans/internal/par"
	"fedtrans/internal/tensor"
	"fedtrans/internal/transform"
)

// Config collects all FedTrans runtime parameters (Algorithm 1 + Table 7).
type Config struct {
	// Rounds is the maximum number of training rounds.
	Rounds int
	// ClientsPerRound is the per-round participant count N.
	ClientsPerRound int
	// Local configures client training.
	Local LocalConfig
	// Transform configures the Model Transformer.
	Transform transform.Config
	// Soft configures inter-model aggregation.
	Soft aggregate.SoftConfig
	// DisableSoftAgg turns off inter-model weight sharing entirely (the
	// Table 3 "-s" ablation).
	DisableSoftAgg bool
	// DisableTransform freezes the suite at the initial model, reducing
	// FedTrans to conventional single-model training (§3).
	DisableTransform bool
	// EvalEvery evaluates all clients every this many rounds (default 5).
	EvalEvery int
	// ConvergePatience implements the appendix stopping rule: training
	// completes when accuracy has not improved by more than convergeDelta
	// over ConvergePatience consecutive evaluations.
	ConvergePatience int
	// ServerYogi applies the FedYogi server optimizer to per-model
	// aggregates (used in the Figure 8 experiment).
	ServerYogi bool
	// MaxStaleness, when ≥ 1, runs FedBuff-style staleness-bounded
	// asynchronous rounds: round r+1 begins while round-r stragglers are
	// still training, an update may fold up to MaxStaleness rounds after
	// its model version was dispatched (discounted by 1/√(1+s) at the
	// accumulator), and older in-flight work is force-committed so the
	// schedule stays deterministic. 0 runs synchronous rounds: the same
	// loop at staleness 0, where every participant settles in the round
	// that selected it.
	MaxStaleness int
	// AsyncConcurrency is the constant number of clients kept training
	// concurrently in asynchronous mode: each round tops the in-flight
	// set back up to this many dispatches. 0 defaults to
	// 2×ClientsPerRound; values below ClientsPerRound are clamped up so
	// a full commit set can exist.
	AsyncConcurrency int
	// EdgeAggregators is read by nothing: every round folds into one
	// streaming accumulator.
	//
	// Deprecated: no effect.
	EdgeAggregators int
	// Trainer, when non-nil, runs every client local-training attempt
	// instead of the in-process session pool — the hook the networked
	// coordinator (internal/netcoord) plugs its agent connections into.
	// Everything else about the round (chaos draws, seeds, costs, fold
	// order) is unchanged, so a Trainer that reproduces in-process
	// training bit-for-bit yields byte-identical results. A Trainer
	// error fails the attempt at the transport layer and flows through
	// the normal retry/quorum machinery.
	Trainer Trainer
	// EvalSample, when ≥ 1 and smaller than the population, makes
	// EvaluateAll score a fixed deterministic panel of that many clients
	// instead of everyone — the O(population) → O(EvalSample) escape
	// hatch for generative million-client runs. The panel is drawn once
	// per runtime from a dedicated seeded stream (never the round RNG,
	// so training draws are unperturbed) and sorted ascending, making
	// the result bit-stable across serial and parallel evaluation and
	// across resume. 0, or any value covering the population, evaluates
	// every client through the exact unsampled code path.
	EvalSample int
	// Seed drives client selection (uniform, without replacement: the
	// paper's setup), assignment sampling, and local batching.
	Seed int64
	// Quorum, when positive, is the fraction of a round's selected
	// participants whose updates must fold into the aggregator for the
	// round to commit (need = ceil(Quorum × selected)). A round that
	// cannot reach quorum is aborted: its partial aggregates are
	// discarded and the suite weights stay untouched, so surviving
	// clients' weight shares implicitly redistribute to later committed
	// rounds. 0 keeps the legacy behavior (every round commits).
	Quorum float64
	// RetryBudget is how many times a failed participant attempt (chaos
	// crash, corrupt or non-finite upload, transport error) is retried
	// before the client counts as failed for the round. Retries run with
	// attempt-salted local seeds, so they are deterministic without
	// replaying the failure.
	RetryBudget int
	// Chaos configures deterministic fault injection (internal/chaos).
	// The zero value disables it.
	Chaos chaos.Config
	// CheckpointEvery, when positive together with CheckpointSink,
	// snapshots the full runtime state after every CheckpointEvery-th
	// round. The snapshot is taken synchronously (cheap: COW model
	// clones plus scalar state) but encoded and delivered on a background
	// goroutine, keeping serialization and I/O off the round critical
	// path (see PERF.md).
	CheckpointEvery int
	// CheckpointSink receives each encoded checkpoint. round is the
	// number of fully completed rounds the blob captures (resume starts
	// at that round). Called from a background goroutine, one call at a
	// time; Run waits for outstanding deliveries before returning.
	CheckpointSink func(round int, blob []byte)
}

// DefaultConfig returns paper-default parameters at reproduction scale.
func DefaultConfig() Config {
	return Config{
		Rounds:           120,
		ClientsPerRound:  10,
		Local:            DefaultLocalConfig(),
		Transform:        transform.DefaultConfig(),
		Soft:             aggregate.DefaultSoftConfig(),
		EvalEvery:        5,
		ConvergePatience: 10,
		Seed:             1,
	}
}

const (
	// convergeDelta is the accuracy gain an evaluation must show to
	// count as progress under the stopping rule.
	convergeDelta = 0.01
	// activenessWindow is the number of consecutive rounds over which
	// cell activeness is averaged (Table 7's T).
	activenessWindow = 5
)

// RoundLog is one round's record. Result.Log is a run's one per-round
// record, which checkpoints carry and Result's methods project; it
// holds deterministic facts only.
type RoundLog struct {
	Round    int
	Updates  int
	MeanLoss float64
	// RoundTime is the round's simulated completion time: a round
	// completes when its slowest participant finishes.
	RoundTime float64
	// TrainMACs is the run's cumulative training MACs after this round.
	TrainMACs float64
	// UpdatesPerModel maps model ID to the number of client updates it
	// received this round.
	UpdatesPerModel map[int]int
	// Transformed reports whether a new model was spawned after this
	// round.
	Transformed bool
	// SuiteSize is the model count after the round.
	SuiteSize int
	// Failures counts participants that exhausted their retry budget
	// this round.
	Failures int
	// Retries counts retry attempts consumed this round.
	Retries int
	// Committed reports whether the round reached quorum and its
	// aggregate was applied; an uncommitted round changed no weights.
	Committed bool
	// Evaluated marks a round after which every client was evaluated;
	// MeanAcc is then their mean accuracy, and 0 otherwise.
	Evaluated bool
	MeanAcc   float64
}

// Overhead counts the coordinator-side bookkeeping operations of Table 5.
type Overhead struct {
	UtilityUpdates int64
	DoCUpdates     int64
	Transforms     int64
}

// Result summarizes one training run.
type Result struct {
	// ClientAcc is each client's final accuracy on its best compatible
	// model.
	ClientAcc []float64
	// MeanAcc is the average of ClientAcc (the paper's headline metric).
	MeanAcc float64
	// Box summarizes the ClientAcc distribution (Figure 6).
	Box metrics.BoxStats
	// Costs aggregates MACs / network / storage (Table 2).
	Costs metrics.Costs
	// SuiteArch describes every model trained, in creation order.
	SuiteArch []string
	// SuiteMACs is each model's per-sample forward MACs.
	SuiteMACs []float64
	// RoundsRun is the number of rounds actually executed.
	RoundsRun int
	// Overhead reports coordinator bookkeeping volumes (Table 5).
	Overhead Overhead
	// BestModelMACs records, per client, the complexity of its assigned
	// model at final evaluation.
	BestModelMACs []float64
	// Failures counts participants that exhausted their retry budget
	// (chaos faults, corrupt or non-finite uploads, transport errors).
	Failures int
	// Retries counts failed attempts that were retried.
	Retries int
	// AbortedRounds counts rounds discarded for missing quorum.
	AbortedRounds int
	// MeanStaleness is the mean staleness (server rounds between model
	// dispatch and update fold) over all committed updates. Always 0 for
	// synchronous runs.
	MeanStaleness float64
	// Log is the one per-round record, of deterministic facts only.
	Log []RoundLog
}

// RoundTimes projects Log onto each round's simulated completion time
// (Table 6).
func (r Result) RoundTimes() []float64 {
	out := make([]float64, len(r.Log))
	for i := range r.Log {
		out[i] = r.Log[i].RoundTime
	}
	return out
}

// CostCurve projects Log onto mean accuracy against cumulative training
// MACs at every evaluated round (Figure 7).
func (r Result) CostCurve() metrics.Series {
	var s metrics.Series
	for i := range r.Log {
		if l := &r.Log[i]; l.Evaluated {
			s.Append(l.TrainMACs, l.MeanAcc)
		}
	}
	return s
}

// Runtime executes FedTrans (Algorithm 1) over a dataset and device trace.
type Runtime struct {
	cfg   Config
	ds    *data.Dataset
	trace *device.Trace

	suite     []*model.Model
	mgr       *assign.Manager
	doc       *transform.DoCTracker
	act       map[int]*transform.ActivenessTracker
	rng       *rand.Rand
	rngSrc    *countingSource
	serverOpt *yogiOpt
	chaos     *chaos.Injector

	maxCapacity float64

	// Run-loop state lives on the Runtime (not on the Run stack) so a
	// checkpoint can capture it and Resume can continue mid-run: the
	// accumulated result, the convergence-rule trackers, and the next
	// round index. resumed marks a runtime whose state was installed by
	// Restore, so Run continues instead of starting over.
	res       Result
	bestAcc   float64
	stall     int
	nextRound int
	resumed   bool

	// ckptWG tracks in-flight background checkpoint encodes; ckptMu
	// serializes sink calls; ckptErr records the first encode failure.
	ckptWG  sync.WaitGroup
	ckptMu  sync.Mutex
	ckptErr error

	// Streaming-aggregation state, all recycled across rounds so the
	// steady-state round loop allocates O(1) regardless of participants:
	// the per-model accumulators (one float64 slice per parameter tensor,
	// folded on the stream's consumer), pooled training sessions and
	// upload buffers, and the loss-standardization / compatibility
	// scratch slices.
	agg       *aggregate.StreamingFedAvg
	sessions  modelPool[*localSession]
	uploads   modelPool[[]*tensor.Tensor]
	evalPanel []int // the lazily drawn EvalSample panel; nil means every client
	lossBuf   []float64
	stdBuf    []float64
	compatBuf []*model.Model
	commitBuf []*roundTask

	// The round engine (round.go): its policy, the completion stream the
	// clients train on, and the scheduler state a checkpoint carries —
	// the schedule and the in-flight dispatches, so Resume reproduces the
	// interrupted schedule exactly. sortBuf and busyIDs (the in-flight
	// client IDs, sorted for the top-up selection) are per-round scratch.
	// snaps holds each model ID's ring of version snapshots, and
	// flightFree the retired dispatch records for reuse.
	pol        roundPolicy
	stream     *par.TaskStream
	sched      schedule
	inflight   []*flight
	sortBuf    []*flight
	busyIDs    []int
	snaps      map[int][]snapSlot
	flightFree []*flight
}

// roundTask is one selected participant's slot in the
// streaming round pipeline: produce fills the upload buffers and the
// scalar outcomes, consume folds the upload into the accumulator and
// releases the buffers back to the pool. fault/delay carry the chaos
// draw of the latest attempt.
type roundTask struct {
	client int
	m      *model.Model
	// dev is the client's device, synthesized from the trace once at
	// dispatch: every attempt's simulated time reads it, and the
	// commit's joint-utility update filters the suite by its capacity.
	dev device.Device
	// snap is the snapshot of m's weights at the dispatch version, which
	// every attempt trains from; the consumer may move m meanwhile.
	snap *snapSlot
	// stale counts the server rounds between dispatch and fold; the
	// accumulator discounts the update by 1/√(1+stale). Always 0 in
	// synchronous rounds.
	stale   int
	up      []*tensor.Tensor
	loss    float64
	samples int
	fault   chaos.Fault
	delay   float64
	// err records a Trainer transport failure (wire fault, lost agent):
	// the attempt failed before any upload arrived.
	err error
}

// countingSource wraps a rand.Source and counts state advances. It
// deliberately implements only rand.Source (not Source64): rand.Rand's
// Uint64 fallback over Int63 is formula-identical to the stdlib
// source's own Uint64, so hiding Source64 changes no output bits while
// making every consumed draw observable. Checkpoints store the count;
// resume fast-forwards a fresh source by the same number of steps to
// land on the exact rng state of the interrupted run.
type countingSource struct {
	src rand.Source
	n   uint64
}

func (s *countingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.n = 0
}

// New builds a runtime from an initial model spec. The device trace must
// have at least as many devices as the dataset has clients.
func New(cfg Config, ds *data.Dataset, trace *device.Trace, initial model.Spec) *Runtime {
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 5
	}
	if cfg.Local.Steps == 0 {
		cfg.Local = DefaultLocalConfig()
	}
	src := &countingSource{src: rand.NewSource(cfg.Seed)}
	rng := rand.New(src)
	// A per-run ID scope keeps model/cell IDs deterministic even when
	// several runtimes execute concurrently (parallel experiment grids).
	m0 := initial.BuildScoped(rng, model.NewIDGen())
	rt := &Runtime{
		cfg:    cfg,
		ds:     ds,
		trace:  trace,
		suite:  []*model.Model{m0},
		mgr:    assign.NewManager(ds.Len()),
		doc:    transform.NewDoCTracker(cfg.Transform.Gamma, cfg.Transform.Delta),
		act:    map[int]*transform.ActivenessTracker{m0.ID: transform.NewActivenessTracker(activenessWindow)},
		rng:    rng,
		rngSrc: src,
		chaos:  chaos.New(cfg.Chaos),
		agg:    aggregate.NewStreaming(),
		snaps:  make(map[int][]snapSlot),
	}
	rt.pol = newPolicy(&cfg)
	// A round commits about ClientsPerRound updates, or AsyncConcurrency
	// when that is set higher, so about Rounds times that many clients
	// (never more than the population) gain a utility: the table is
	// sized for them once.
	rt.mgr.Reserve(min(ds.Len(), max(cfg.Rounds, 0)*max(cfg.ClientsPerRound, cfg.AsyncConcurrency)))
	rt.stream = par.NewTaskStream(rt.pol.window)
	// The configured capacity ceiling, not an O(N) empirical scan:
	// synthesis clamps every device to it, so setup cost stays
	// independent of the population size.
	rt.maxCapacity = trace.CapacityBound()
	return rt
}

// Suite returns the current model suite (creation order).
func (rt *Runtime) Suite() []*model.Model { return rt.suite }

func (rt *Runtime) storageBytes() int64 {
	var b int64
	for _, m := range rt.suite {
		b += m.Bytes()
	}
	return b
}

// Run executes the full training loop and returns the result summary.
// On a runtime installed by Restore it continues from the checkpointed
// round instead of starting over; the returned Result is then identical
// to an uninterrupted run's.
func (rt *Runtime) Run() Result {
	cfg := rt.cfg
	if !rt.resumed {
		rt.res = Result{}
		rt.res.Costs.ObserveStorage(rt.storageBytes())
		rt.bestAcc, rt.stall, rt.nextRound = 0, 0, 0
	}
	res := &rt.res
	// accs and bestMACs are the evaluation of the last round the loop
	// runs: it evaluates round Rounds-1, and the convergence rule breaks
	// only after an evaluation.
	var accs, bestMACs []float64

loop:
	for round := rt.nextRound; round < cfg.Rounds; round++ {
		failuresBefore, retriesBefore := res.Failures, res.Retries
		roundLoss, roundTime, perModel, committed := rt.runRound(round, res)
		if committed {
			rt.doc.Observe(roundLoss)
			res.Overhead.DoCUpdates++
		}
		res.RoundsRun = round + 1

		// Model transformation (§4.1). An aborted round contributes no
		// convergence evidence, so it cannot trigger a transform.
		transformed := false
		if committed && !cfg.DisableTransform {
			if doc, ok := rt.doc.DoC(); ok && doc <= cfg.Transform.Beta {
				if rt.tryTransform(round) {
					transformed = true
					res.Overhead.Transforms++
					res.Costs.ObserveStorage(rt.storageBytes())
				}
			}
		}
		updates := 0
		for _, n := range perModel {
			updates += n
		}
		res.Log = append(res.Log, RoundLog{
			Round: round, Updates: updates,
			MeanLoss: roundLoss, RoundTime: roundTime,
			TrainMACs:       res.Costs.TrainMACs,
			UpdatesPerModel: perModel,
			Transformed:     transformed,
			SuiteSize:       len(rt.suite),
			Failures:        res.Failures - failuresBefore,
			Retries:         res.Retries - retriesBefore,
			Committed:       committed,
		})

		// Periodic evaluation and the appendix convergence rule.
		if (round+1)%cfg.EvalEvery == 0 || round == cfg.Rounds-1 {
			accs, bestMACs = rt.EvaluateAll()
			mean := metrics.Mean(accs)
			l := &res.Log[len(res.Log)-1]
			l.Evaluated, l.MeanAcc = true, mean
			if cfg.ConvergePatience > 0 {
				if mean > rt.bestAcc+convergeDelta {
					rt.bestAcc = mean
					rt.stall = 0
				} else {
					rt.stall++
					if rt.stall >= cfg.ConvergePatience {
						// The run is over: no round is left to resume.
						rt.nextRound = cfg.Rounds
						break loop
					}
				}
			}
		}
		rt.nextRound = round + 1

		if cfg.CheckpointEvery > 0 && cfg.CheckpointSink != nil &&
			(round+1)%cfg.CheckpointEvery == 0 && round+1 < cfg.Rounds {
			rt.checkpointAsync(round + 1)
		}
	}
	rt.drain()
	rt.ckptWG.Wait()

	if sc := rt.sched; sc.staleCnt > 0 {
		res.MeanStaleness = float64(sc.staleSum) / float64(sc.staleCnt)
	}
	// drain moved no weight and no utility, so the loop's last evaluation
	// is the end state's. A loop that ran no round (a run resumed from
	// its last round, or Rounds 0) evaluates it here.
	if accs == nil {
		accs, bestMACs = rt.EvaluateAll()
	}
	res.ClientAcc = accs
	res.BestModelMACs = bestMACs
	res.MeanAcc = metrics.Mean(accs)
	res.Box = metrics.Box(accs)
	for _, m := range rt.suite {
		res.SuiteArch = append(res.SuiteArch, m.ArchString())
		res.SuiteMACs = append(res.SuiteMACs, m.MACsPerSample())
	}
	return *res
}

// CheckpointErr returns the first background checkpoint-encode failure,
// or nil. Valid after Run returns (Run waits for in-flight encodes).
func (rt *Runtime) CheckpointErr() error {
	rt.ckptMu.Lock()
	defer rt.ckptMu.Unlock()
	return rt.ckptErr
}

// streamWindow bounds how many trained-but-not-yet-folded client updates
// a round keeps in flight, max(16, 8·GOMAXPROCS): the coordinator's peak
// update memory is O(window × model bytes) regardless of
// ClientsPerRound. The result is byte-identical for every window; it
// trades only pipeline overlap against memory. The consumer runs its
// share of the round's tasks inline, and the dispatch loop and the folds
// between them, while the stream's workers run ahead. A window of 4
// starves the worker: on 2 vCPUs (one worker) it gets three tasks ahead
// of the fold and then waits, and round_scale keeps only ~1.55 of its 2
// cores busy. PERF.md has the window sweep behind this bound.
func streamWindow() int { return max(16, 8*stdruntime.GOMAXPROCS(0)) }

// primed builds m's lazily cached Params and ParamCount and returns m. A
// model workers read concurrently is primed first, on the consumer, so
// no worker races the cache build: every snapshot a flight trains from,
// and the suite before evaluation reads it.
func primed(m *model.Model) *model.Model {
	m.Params()
	m.ParamCount()
	return m
}

// quorumNeed returns how many of the participants a round settled must
// fold for it to commit; 0 when no quorum is configured.
func (rt *Runtime) quorumNeed(settled int) int {
	if rt.cfg.Quorum <= 0 {
		return 0
	}
	need := int(math.Ceil(rt.cfg.Quorum * float64(settled)))
	if need < 1 {
		need = 1
	}
	return need
}

// settle commits a trained task: it folds the first attempt, retries a
// failed one up to RetryBudget times (version is the round whose seeds
// and chaos draws the attempts use), returns the upload buffers to the
// pool, and counts a failure when no attempt folded. It returns the
// simulated time the attempt chain took and whether the update folded.
func (rt *Runtime) settle(version int, u *roundTask, res *Result) (elapsed float64, ok bool) {
	ok = rt.commitAttempt(u, &elapsed, res)
	for attempt := 1; !ok && attempt <= rt.cfg.RetryBudget; attempt++ {
		res.Retries++
		// Retries run synchronously on the (single) consumer
		// goroutine: determinism needs no extra machinery, and a
		// retry storm degrades throughput instead of correctness.
		rt.trainTask(version, attempt, u)
		ok = rt.commitAttempt(u, &elapsed, res)
	}
	rt.releaseUploads(u)
	if !ok {
		res.Failures++
	}
	return elapsed, ok
}

// releaseUploads returns a task's upload buffers to the pool.
func (rt *Runtime) releaseUploads(u *roundTask) {
	if u.up != nil {
		rt.uploads.put(u.m.ID, u.up)
		u.up = nil
	}
}

// applyCommitted runs the post-fold stages of a committed round —
// per-model FedAvg finalize (+ optional Yogi server step) and
// activeness observation, joint utility learning over round-
// standardized losses, and soft inter-model aggregation — all fed from
// the accumulator state plus the committed tasks' scalars. It returns
// the weighted mean training loss and per-model update counts.
func (rt *Runtime) applyCommitted(round int, committed []*roundTask, res *Result) (float64, map[int]int) {
	cfg := rt.cfg

	// Per-model finalize (+ optional Yogi server step) and activeness,
	// all fed from the accumulator instead of retained updates. The
	// weight of failed participants implicitly redistributes to the
	// survivors: FedAvg normalizes by the folded sample mass only.
	perModel := make(map[int]int)
	lossSum, lossWeight := 0.0, 0.0
	for _, m := range rt.suite {
		if rt.agg.Updates(m.ID) == 0 {
			continue
		}
		perModel[m.ID] = rt.agg.Updates(m.ID)
		prev := m.CopyWeights()
		meanLoss, n, _ := rt.agg.Finalize(m)
		if cfg.ServerYogi {
			if rt.serverOpt == nil {
				rt.serverOpt = newYogiOpt()
			}
			rt.serverOpt.apply(m, prev)
		}
		lossSum += meanLoss * float64(n)
		lossWeight += float64(n)
		tracker := rt.act[m.ID]
		if tracker == nil {
			tracker = transform.NewActivenessTracker(activenessWindow)
			rt.act[m.ID] = tracker
		}
		scale := cfg.Local.LR * float64(cfg.Local.Steps)
		tracker.Observe(m, m.CellDeltaActiveness(prev, scale))
		for _, p := range prev {
			p.Release()
		}
	}

	// Joint utility learning (Eq. 4) with round-standardized losses,
	// over committed updates only — a failed client's loss is not
	// evidence about model utility.
	losses := rt.lossBuf[:0]
	for _, u := range committed {
		losses = append(losses, u.loss)
	}
	rt.lossBuf = losses
	rt.stdBuf = assign.StandardizeLossesInto(rt.stdBuf[:0], losses)
	std := rt.stdBuf
	for k, u := range committed {
		rt.compatBuf = assign.CompatibleInto(rt.compatBuf[:0], rt.suite, u.dev.CapacityMACs)
		rt.mgr.UpdateJoint(u.client, u.m, std[k], rt.compatBuf)
		res.Overhead.UtilityUpdates += int64(len(rt.compatBuf))
	}

	// Soft inter-model aggregation (Eq. 5).
	if !cfg.DisableSoftAgg && len(rt.suite) > 1 {
		aggregate.SoftAggregate(rt.suite, round, cfg.Soft)
	}

	if lossWeight == 0 {
		return 0, perModel
	}
	return lossSum / lossWeight, perModel
}

// trainTask runs one local-training attempt for a round slot. The chaos
// draw happens first — a crashed client never trains — and the local
// seed is attempt-salted so a retry is a fresh deterministic training
// run rather than a replay of the failed one.
func (rt *Runtime) trainTask(round, attempt int, u *roundTask) {
	cfg := rt.cfg
	u.fault = rt.chaos.Fault(round, u.client, attempt)
	u.delay = rt.chaos.Delay(round, u.client, attempt)
	u.err = nil
	// The task reads only its snapshot, never the live model the
	// consumer may be finalizing: pool lookups key off it too (Clone
	// preserves the model ID).
	src := u.snap.m
	if u.up == nil {
		u.up = rt.uploads.get(src, NewUploadSet)
	}
	if u.fault == chaos.Crash {
		u.loss, u.samples = 0, 0
		return
	}
	seed := cfg.Seed + int64(round)*1_000_003 + int64(u.client)*7919 + int64(attempt)*104729
	if cfg.Trainer != nil {
		spec := TrainSpec{Round: round, Attempt: attempt, Client: u.client, Seed: seed}
		u.loss, u.samples, u.err = cfg.Trainer.Train(src, spec, cfg.Local, u.up)
		if u.err != nil {
			u.loss, u.samples = 0, 0
			return
		}
	} else {
		sess := rt.sessions.get(src, newLocalSession)
		u.loss, u.samples = sess.run(src, rt.ds.FetchTrain(&sess.cur, u.client), cfg.Local, seed, u.up)
		rt.sessions.put(src.ID, sess)
	}
	if u.fault == chaos.NonFinite && u.samples > 0 {
		// The client's training diverged: poison the upload so the
		// accumulator's finite check must catch it. (A zero-sample
		// client produced no upload to poison.)
		last := u.up[len(u.up)-1]
		last.EnsureOwned()
		last.Data[0] = tensor.Float(math.NaN())
	}
}

// commitAttempt folds one attempt's upload into the accumulator,
// charging its simulated costs and time, and reports whether it
// succeeded. Failure modes: chaos crash (download spent, nothing else),
// a transport error (likewise), and a corrupt or non-finite upload
// rejected at the accumulator boundary (full cost spent — the bytes did
// travel).
func (rt *Runtime) commitAttempt(u *roundTask, elapsed *float64, res *Result) bool {
	cfg := rt.cfg
	m := u.m
	if u.fault == chaos.Crash {
		res.Costs.NetworkBytes += m.Bytes()
		return false
	}
	if u.err != nil {
		// The wire failed mid-attempt: the download traveled, nothing
		// came back. The retry loop redials through a fresh attempt.
		res.Costs.NetworkBytes += m.Bytes()
		return false
	}
	if u.samples == 0 {
		// A zero-sample client has nothing to fold. Succeed without
		// touching the accumulator: sampleWeight clamps weight-0 updates
		// to 1, so folding one would wrongly count as a contribution.
		res.Costs.NetworkBytes += m.Bytes()
		return true
	}
	t := u.dev.TrainingTime(m.MACsPerSample(), cfg.Local.Steps, cfg.Local.BatchSize, m.Bytes()) + u.delay
	res.Costs.AddTraining(m.MACsPerSample(), cfg.Local.Steps, cfg.Local.BatchSize)
	*elapsed += t
	ws := u.up
	if u.fault == chaos.CorruptUpload && len(ws) > 0 {
		ws = ws[:len(ws)-1] // truncated in flight
	}
	res.Costs.AddTransfer(m.Bytes())
	err := rt.agg.Add(m, aggregate.Update{
		ModelID: m.ID, Weights: ws, Samples: u.samples, Loss: u.loss,
		Staleness: u.stale,
	})
	if err != nil {
		if u.fault == chaos.None && !errors.Is(err, aggregate.ErrNonFinite) {
			panic(err) // uploads are shaped by the model itself: a real bug
		}
		return false
	}
	return true
}

// tryTransform derives a new model from the current largest model,
// respecting the trace's maximum capacity. Returns whether a model was
// added.
func (rt *Runtime) tryTransform(round int) bool {
	cfg := rt.cfg
	parent := rt.suite[len(rt.suite)-1]
	if parent.MACsPerSample() >= rt.maxCapacity {
		return false
	}
	tracker := rt.act[parent.ID]
	if tracker == nil {
		return false
	}
	act := tracker.Mean(parent)
	selected := transform.SelectCells(parent, act, cfg.Transform, rt.rng)
	if len(selected) == 0 {
		return false
	}
	child := transform.Apply(parent, selected, cfg.Transform, round, rt.rng)
	if child.MACsPerSample() > rt.maxCapacity {
		return false
	}
	rt.suite = append(rt.suite, child)
	rt.mgr.InheritUtilities(parent.ID, child.ID)
	rt.act[child.ID] = transform.NewActivenessTracker(activenessWindow)
	rt.doc.Reset()
	return true
}

// EvaluateAll evaluates every client on its best-utility compatible model
// and returns per-client accuracies and the MACs of each client's chosen
// model. Clients are claimed one at a time by a GOMAXPROCS-bounded worker
// pool (par.ForN), so a worker that drew small models takes more clients
// instead of idling; model selection is deterministic and each client is
// evaluated on a private training session drawn from the round loop's
// session pool (Forward mutates activation caches, so sessions are never
// shared), so the results are identical to a serial evaluation. Pooled
// sessions persist across rounds and evaluations: the steady-state
// evaluation allocates nothing beyond the result slices, at the cost of
// one weight refresh per client — a pooled session's weights are stale
// because Finalize moves the live suite every round.
// When Config.EvalSample is set below the population size, only the
// fixed deterministic panel returned by EvalClients is scored, and the
// result slices are indexed by panel position instead of client ID.
func (rt *Runtime) EvaluateAll() (accs, bestMACs []float64) {
	panel := rt.EvalClients()
	k := rt.ds.Len()
	at := func(i int) int { return i }
	if panel != nil {
		k = len(panel)
		at = func(i int) int { return panel[i] }
	}
	accs = make([]float64, k)
	bestMACs = make([]float64, k)
	chosen := make([]*model.Model, k)
	for i := 0; i < k; i++ {
		c := at(i)
		compatible := assign.Compatible(rt.suite, rt.trace.At(c).CapacityMACs)
		chosen[i] = rt.mgr.Best(c, compatible)
	}
	for _, m := range rt.suite {
		primed(m)
	}
	par.ForN(k, func(i int) {
		m := chosen[i]
		if m == nil {
			return
		}
		s := rt.sessions.get(m, newLocalSession)
		s.m.SetWeights(m.Params())
		accs[i] = EvaluateOn(s.m, rt.ds.Fetch(&s.cur, at(i)))
		bestMACs[i] = m.MACsPerSample()
		rt.sessions.put(m.ID, s)
	})
	return accs, bestMACs
}

// evalPanelSalt offsets the panel-draw seed from every other derived
// stream (round RNG, chaos, device trace).
const evalPanelSalt = 424_243

// EvalClients returns the evaluation panel: nil when every client is
// evaluated (EvalSample unset or ≥ population — the identity fast
// path), otherwise a fixed sample of EvalSample client indices, drawn
// once per runtime from a dedicated seeded stream and sorted ascending.
// Deriving the panel purely from the config keeps sampled evaluation
// bit-stable across serial/parallel execution and checkpoint resume.
func (rt *Runtime) EvalClients() []int {
	n := rt.ds.Len()
	if rt.cfg.EvalSample <= 0 || rt.cfg.EvalSample >= n {
		return nil
	}
	if rt.evalPanel == nil {
		rng := rand.New(rand.NewSource(rt.cfg.Seed + evalPanelSalt))
		panel := SelectClients(n, rt.cfg.EvalSample, rng)
		sort.Ints(panel)
		rt.evalPanel = panel
	}
	return rt.evalPanel
}
