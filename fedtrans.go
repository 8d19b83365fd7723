// Package fedtrans is the public API of this FedTrans reproduction
// (Zhu et al., "FedTrans: Efficient Federated Learning via Multi-Model
// Transformation", MLSys 2024).
//
// The package wires together the internal substrates — synthetic federated
// datasets, simulated device traces, the from-scratch neural-network
// stack, and the FedTrans coordinator (Model Transformer, Client Manager,
// Model Aggregator) — behind a single Options/Run entry point:
//
//	opts := fedtrans.DefaultOptions()
//	opts.Profile = "femnist"
//	summary, err := fedtrans.Run(opts)
//
// Advanced users can construct a Session to checkpoint, resume or serve a
// run. The Summary's Models field describes the trained model suite, and
// Session.ExportModel hands any of its models to LoadModel for
// deployment. go test runs every Example below and checks its output.
package fedtrans

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"fedtrans/internal/chaos"
	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/fl"
	"fedtrans/internal/model"
	"fedtrans/internal/netcoord"
)

// Options configures a FedTrans training run. Start from DefaultOptions()
// — the paper defaults (Table 7) at reproduction scale — or ScaleOptions()
// and change what the run needs: NewSession rejects a value outside its
// field's range with ErrInvalidOptions, and never replaces one.
type Options struct {
	// Profile selects the synthetic dataset profile: "femnist" (default),
	// "cifar10", "speech", "openimage", "vit", or "scale" (a deliberately
	// small task geometry for massive-client rounds; see ScaleOptions).
	Profile string
	// Clients is the number of federated clients (default 50).
	Clients int
	// Population, when > 0, overrides Clients and switches the session to
	// a generative population: every client's data shard, device-trace
	// entry, and RNG stream is synthesized deterministically on demand
	// from (Seed, clientID) instead of being materialized up front, so
	// session setup cost and resident state are independent of the
	// population size — O(active clients), not O(Population); so are a
	// checkpoint's bytes and the state a resume restores, which hold
	// per-client utilities only for clients that trained. Results are
	// bit-identical to a materialized run with Clients = Population,
	// which opens the 10⁶-client workload class (see ScaleOptions).
	Population int
	// EdgeAggregators is read by nothing: every round folds into one
	// streaming accumulator. Validate still rejects a negative value.
	//
	// Deprecated: no effect.
	EdgeAggregators int
	// Heterogeneity is the Dirichlet label-skew parameter h; lower is more
	// heterogeneous (default 1).
	Heterogeneity float64
	// Rounds is the training-round budget (default 120).
	Rounds int
	// ClientsPerRound is the per-round participant count (default 10).
	ClientsPerRound int
	// LocalSteps, BatchSize, LearningRate configure client training
	// (defaults 20, 10, 0.05 per §5.1).
	LocalSteps   int
	BatchSize    int
	LearningRate float64
	// Alpha is the Cell-activeness transformation threshold (default 0.9).
	Alpha float64
	// Beta is the Degree-of-Convergence threshold (default 0.025 at
	// reproduction scale; the paper's 0.003 assumes 1000+ round budgets).
	Beta float64
	// Gamma and Delta are the DoC slope count and slope step (defaults 4
	// and 3 at reproduction scale).
	Gamma, Delta int
	// WidenFactor and DeepenCells set the transformation degrees
	// (defaults 2 and 1).
	WidenFactor float64
	DeepenCells int
	// CapacitySpread is the max/min device capacity ratio of the simulated
	// trace (default 32, matching the paper's ≥29x disparity; 1 gives every
	// device the same capacity).
	CapacitySpread float64
	// AllowL2S enables large-to-small weight sharing (off by default; see
	// Table 1).
	AllowL2S bool
	// MaxStaleness ≥ 1 switches the coordinator to FedBuff-style
	// staleness-bounded asynchronous rounds: clients train against the
	// model version current at dispatch, rounds commit the earliest
	// arrivals instead of waiting for the slowest participant, and any
	// update still in flight after MaxStaleness server rounds is
	// force-committed with its contribution discounted by 1/√(1+s).
	// 0 (the default) keeps fully synchronous rounds.
	MaxStaleness int
	// AsyncConcurrency is the constant number of clients kept training at
	// once in asynchronous mode (default 2×ClientsPerRound, never below
	// ClientsPerRound). Ignored when MaxStaleness is 0.
	AsyncConcurrency int
	// Seed drives all randomness (default 1). Every value, 0 included, is
	// a seed.
	Seed int64
	// Quorum enables elastic rounds: a round commits when at least
	// ceil(Quorum × selected) client updates fold successfully, and is
	// aborted (weights untouched) otherwise. 0 keeps the strict legacy
	// behavior where every update must arrive.
	Quorum float64
	// RetryBudget is the number of deterministic re-training attempts per
	// failed client upload before the client counts as a round failure.
	RetryBudget int
	// Chaos configures the deterministic fault-injection harness. All
	// rates zero (the default) leaves the run fault-free.
	Chaos ChaosOptions
	// CheckpointPath, when non-empty, makes the coordinator write a
	// resumable checkpoint to this file every CheckpointEvery rounds
	// (atomically, via a temp file + rename). Session.Resume restores a
	// run from such a blob and reproduces the uninterrupted run
	// bit-for-bit.
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in rounds (default 10).
	CheckpointEvery int
	// EvalSample, when > 0 and smaller than the client count, restricts
	// every full-population evaluation pass (the periodic EvaluateAll
	// and the final accuracy sweep) to a fixed
	// deterministic panel of EvalSample clients drawn once from the run
	// seed. Per-client outputs then have one entry per panel client in
	// ascending client order. EvalSample >= the population is the
	// identity: results are bit-identical to an unsampled run.
	EvalSample int
	// AttentionHeads sets the head count of every attention cell in the
	// initial model (0 and 1 both mean single-head attention, the
	// pre-multi-head behavior, and are bit-identical to it). Only the
	// "vit" profile builds attention cells; setting this on any other
	// profile is an error, as is a head count that does not divide the
	// model dimension.
	AttentionHeads int
	// ServeAddr, when non-empty, runs the session as a networked
	// coordinator: a TCP server listens on this host:port (port 0 picks
	// a free port; see Session.CoordinatorAddr) and every client
	// local-training attempt is dispatched to connected agent processes
	// (RunAgent) over the FTNC protocol instead of the in-process
	// session pool. Training is a pure function of (weights, shard,
	// seed) and the weight codec is lossless, so results — Summary,
	// checkpoints, everything — are byte-identical to an in-process run
	// with the same Options. Run blocks until enough agents connect to
	// serve the round's attempts.
	ServeAddr string
}

// ChaosOptions configures seeded fault injection for robustness testing:
// per-attempt crash, corrupt-upload, non-finite-upload and straggler
// rates, and the straggler delay. Faults are a pure function of (Seed,
// round, client, attempt), so a given profile yields the same fault
// schedule on every run. Seed 0 derives one from Options.Seed.
type ChaosOptions = chaos.Config

// ScaleOptions returns the massive-round stress profile: thousands of
// clients per round on a deliberately small task, exercising the
// streaming aggregation pipeline (selection, assignment, local
// training, accumulator folding) rather than the compute kernels. Peak
// coordinator memory stays O(stream window × model bytes) even at
// ClientsPerRound in the thousands. Set Population to detach the
// population size from resident memory entirely (generative clients);
// results stay bit-identical.
func ScaleOptions() Options {
	o := DefaultOptions()
	o.Profile = "scale"
	o.Clients = 2000
	o.ClientsPerRound = 1000
	o.Rounds = 10
	o.LocalSteps = 2
	o.BatchSize = 8
	return o
}

// DefaultOptions returns paper-default options at reproduction scale.
func DefaultOptions() Options {
	return Options{
		Profile:         "femnist",
		Clients:         50,
		Heterogeneity:   1,
		Rounds:          120,
		ClientsPerRound: 10,
		LocalSteps:      20,
		BatchSize:       10,
		LearningRate:    0.05,
		Alpha:           0.9,
		Beta:            0.025,
		Gamma:           4,
		Delta:           3,
		WidenFactor:     2,
		DeepenCells:     1,
		CapacitySpread:  32,
		Seed:            1,
		CheckpointEvery: 10,
	}
}

// ModelInfo describes one model of the trained suite.
type ModelInfo struct {
	// Arch is a compact architecture string, e.g.
	// "dense(32)->dense(32)->head(16)".
	Arch string
	// MACs is the per-sample forward multiply-accumulate count.
	MACs float64
	// Params is the scalar parameter count.
	Params int64
}

// Summary reports the outcome of a training run.
type Summary struct {
	// MeanAccuracy is the average per-client test accuracy on each
	// client's best compatible model.
	MeanAccuracy float64
	// ClientAccuracy lists per-client accuracies.
	ClientAccuracy []float64
	// AccuracyIQR is the interquartile range of client accuracies.
	AccuracyIQR float64
	// TrainMACs is the total training cost in multiply-accumulate
	// operations across all clients.
	TrainMACs float64
	// NetworkBytes and StorageBytes are communication volume and peak
	// server storage.
	NetworkBytes int64
	StorageBytes int64
	// Models describes the generated model suite in creation order.
	Models []ModelInfo
	// Rounds is the number of rounds executed.
	Rounds int
	// Failures counts client attempts that ended in a fault (crash,
	// corrupt or non-finite upload, lost agent) after exhausting retries;
	// Retries counts re-training attempts. AbortedRounds counts rounds
	// that lost quorum and left the suite untouched. All zero on
	// fault-free runs.
	Failures      int
	Retries       int
	AbortedRounds int
	// WallClock is the total simulated wall-clock time of the run: the
	// sum of per-round completion times. Synchronous rounds charge their
	// slowest participant; asynchronous rounds charge only the progress
	// of the virtual clock, so straggler delays overlap across rounds.
	WallClock float64
	// MeanStaleness is the mean number of server rounds between an
	// update's dispatch and its fold, over all committed updates. Zero on
	// synchronous runs (MaxStaleness 0).
	MeanStaleness float64
}

// Session is a configured FedTrans run whose suite and per-client results
// can be inspected after Run.
type Session struct {
	opts    Options
	trace   *device.Trace
	runtime *fl.Runtime
	hub     *netcoord.Hub

	sinkMu  sync.Mutex
	sinkErr error
}

// ErrInvalidOptions reports an Options field outside its range; the
// error NewSession returns names the field and wraps it.
var ErrInvalidOptions = errors.New("fedtrans: invalid options")

// dataConfig is the synthetic dataset the session's profile describes.
func (o Options) dataConfig() data.Config {
	c := data.Config{Profile: o.Profile, Clients: o.Clients, Heterogeneity: o.Heterogeneity, Seed: o.Seed}
	if o.Profile == "scale" {
		// Small per-client shards: the point is round volume, not local
		// compute.
		c.MinSamples, c.MaxSamples, c.TestSamples = 8, 16, 8
	}
	return c
}

// initialSpec is the session's first model, with AttentionHeads applied.
func (o Options) initialSpec(ds *data.Dataset) model.Spec {
	spec := model.InitialSpec(o.Profile, ds.InputShape, ds.FeatureDim, ds.Classes)
	if o.AttentionHeads > 1 {
		spec.Heads = o.AttentionHeads
	}
	return spec
}

// validate holds every bounded field to its one range rule. The dataset
// check comes first: it vets the profile and the dataset's size, and
// yields the geometry the AttentionHeads rule sizes the initial model by.
func (o Options) validate() error {
	geom, err := o.dataConfig().Check(o.Population > 0)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	spec := o.initialSpec(geom)
	rate := func(v float64) bool { return v >= 0 && v <= 1 }
	for _, r := range []struct {
		field string
		value any
		ok    bool
		want  string
	}{
		{"Clients", o.Clients, o.Clients >= 1, ">= 1"},
		{"Population", o.Population, o.Population >= 0, ">= 0"},
		{"EdgeAggregators", o.EdgeAggregators, o.EdgeAggregators >= 0, ">= 0"},
		{"Heterogeneity", o.Heterogeneity, o.Heterogeneity > 0, "> 0"},
		{"Rounds", o.Rounds, o.Rounds >= 0, ">= 0"},
		{"ClientsPerRound", o.ClientsPerRound, o.ClientsPerRound >= 1 && o.ClientsPerRound <= o.Clients, "in [1, Clients]"},
		{"LocalSteps", o.LocalSteps, o.LocalSteps >= 1, ">= 1"},
		{"BatchSize", o.BatchSize, o.BatchSize >= 1, ">= 1"},
		{"LearningRate", o.LearningRate, o.LearningRate > 0, "> 0"},
		{"Alpha", o.Alpha, o.Alpha > 0 && o.Alpha <= 1, "in (0, 1]"},
		{"Beta", o.Beta, o.Beta > 0, "> 0"},
		{"Gamma", o.Gamma, o.Gamma >= 1, ">= 1"},
		{"Delta", o.Delta, o.Delta >= 1, ">= 1"},
		{"WidenFactor", o.WidenFactor, o.WidenFactor > 1, "> 1"},
		{"DeepenCells", o.DeepenCells, o.DeepenCells >= 1, ">= 1"},
		{"CapacitySpread", o.CapacitySpread, o.CapacitySpread >= 1, ">= 1"},
		{"MaxStaleness", o.MaxStaleness, o.MaxStaleness >= 0, ">= 0"},
		{"AsyncConcurrency", o.AsyncConcurrency, o.AsyncConcurrency >= 0, ">= 0"},
		{"Quorum", o.Quorum, rate(o.Quorum), "in [0, 1]"},
		{"RetryBudget", o.RetryBudget, o.RetryBudget >= 0, ">= 0"},
		{"Chaos.CrashRate", o.Chaos.CrashRate, rate(o.Chaos.CrashRate), "in [0, 1]"},
		{"Chaos.CorruptRate", o.Chaos.CorruptRate, rate(o.Chaos.CorruptRate), "in [0, 1]"},
		{"Chaos.NonFiniteRate", o.Chaos.NonFiniteRate, rate(o.Chaos.NonFiniteRate), "in [0, 1]"},
		{"Chaos.StragglerRate", o.Chaos.StragglerRate, rate(o.Chaos.StragglerRate), "in [0, 1]"},
		{"Chaos.StragglerDelay", o.Chaos.StragglerDelay, o.Chaos.StragglerDelay >= 0, ">= 0"},
		{"CheckpointEvery", o.CheckpointEvery, o.CheckpointEvery >= 1, ">= 1"},
		{"EvalSample", o.EvalSample, o.EvalSample >= 0, ">= 0"},
		{"AttentionHeads", o.AttentionHeads, o.AttentionHeads >= 0 &&
			(o.AttentionHeads <= 1 || spec.Family == "attention" && spec.Input[1]%o.AttentionHeads == 0),
			"0, 1, or a divisor of the vit profile's model dimension"},
	} {
		if !r.ok {
			return fmt.Errorf("%w: %s = %v, want %s", ErrInvalidOptions, r.field, r.value, r.want)
		}
	}
	return nil
}

// NewSession validates options and materializes the dataset, device trace,
// and coordinator. An option out of range is an error wrapping
// ErrInvalidOptions.
func NewSession(opts Options) (*Session, error) {
	if opts.Population > 0 {
		// A generative population is the client count; Clients only
		// matters for materialized sessions.
		opts.Clients = opts.Population
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	model.ResetIDs()
	dcfg := opts.dataConfig()
	var ds *data.Dataset
	if opts.Population > 0 {
		ds = data.GenerateLazy(dcfg)
	} else {
		ds = data.Generate(dcfg)
	}
	spec := opts.initialSpec(ds)
	base := spec.Build(randFor(opts.Seed)).MACsPerSample()
	tcfg := device.TraceConfig{
		N:               opts.Clients,
		MinCapacityMACs: base,
		MaxCapacityMACs: base * opts.CapacitySpread,
		Seed:            opts.Seed + 100,
	}
	var trace *device.Trace
	if opts.Population > 0 {
		trace = device.NewTraceLazy(tcfg)
	} else {
		trace = device.NewTrace(tcfg)
	}
	cfg := fl.DefaultConfig()
	cfg.Rounds = opts.Rounds
	cfg.ClientsPerRound = opts.ClientsPerRound
	cfg.Local = fl.LocalConfig{Steps: opts.LocalSteps, BatchSize: opts.BatchSize, LR: opts.LearningRate}
	cfg.Transform.Alpha = opts.Alpha
	cfg.Transform.Beta = opts.Beta
	cfg.Transform.Gamma = opts.Gamma
	cfg.Transform.Delta = opts.Delta
	cfg.Transform.WidenFactor = opts.WidenFactor
	cfg.Transform.DeepenCells = opts.DeepenCells
	cfg.Soft.AllowL2S = opts.AllowL2S
	cfg.MaxStaleness = opts.MaxStaleness
	cfg.AsyncConcurrency = opts.AsyncConcurrency
	cfg.Seed = opts.Seed
	cfg.Quorum = opts.Quorum
	cfg.RetryBudget = opts.RetryBudget
	cfg.Chaos = opts.Chaos
	if cfg.Chaos.Seed == 0 {
		cfg.Chaos.Seed = opts.Seed + 10_007
	}
	cfg.EvalSample = opts.EvalSample
	s := &Session{opts: opts, trace: trace}
	if opts.ServeAddr != "" {
		hub, err := netcoord.NewHub(opts.ServeAddr, netcoord.RunConfig{
			Data:       dcfg,
			Generative: opts.Population > 0,
			Local:      cfg.Local,
		})
		if err != nil {
			return nil, err
		}
		cfg.Trainer = hub
		s.hub = hub
	}
	if opts.CheckpointPath != "" {
		cfg.CheckpointEvery = opts.CheckpointEvery
		cfg.CheckpointSink = func(round int, blob []byte) {
			if err := writeFileAtomic(opts.CheckpointPath, blob); err != nil {
				s.sinkMu.Lock()
				if s.sinkErr == nil {
					s.sinkErr = fmt.Errorf("fedtrans: checkpoint at round %d: %w", round, err)
				}
				s.sinkMu.Unlock()
			}
		}
	}
	s.runtime = fl.New(cfg, ds, trace, spec)
	return s, nil
}

// writeFileAtomic writes blob to path through a temp file and a rename,
// syncing the file before the rename and its directory after it, so a
// crash at any instant leaves the previous checkpoint or the new one at
// path, never a truncated file.
func writeFileAtomic(path string, blob []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(blob)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// Run executes training and returns the summary. A networked session
// (Options.ServeAddr) stops its coordinator server when training ends,
// so connected agents exit cleanly.
func (s *Session) Run() Summary {
	sum := s.summarize(s.runtime.Run())
	s.Close()
	return sum
}

// CoordinatorAddr is the actual listen address of a networked session's
// coordinator server (useful with port 0 in ServeAddr). Empty for
// in-process sessions.
func (s *Session) CoordinatorAddr() string {
	if s.hub == nil {
		return ""
	}
	return s.hub.Addr()
}

// Close releases the session's network resources (the coordinator
// server of a ServeAddr session). Idempotent; Run and Resume call it on
// completion, so explicit Close is only needed for sessions abandoned
// before running.
func (s *Session) Close() {
	if s.hub != nil {
		s.hub.Close()
	}
}

// RunAgent joins a networked coordinator (a session created with
// Options.ServeAddr, or `fedtrans -serve`) as a pool of workers client
// agents: each worker downloads models and trains clients over the FTNC
// protocol until the coordinator finishes. Blocks for the lifetime of
// the coordinator; returns nil on clean shutdown. workers < 1 is an error
// wrapping ErrInvalidOptions.
func RunAgent(addr string, workers int) error {
	if workers < 1 {
		return fmt.Errorf("%w: workers = %d, want >= 1", ErrInvalidOptions, workers)
	}
	return netcoord.RunAgents(netcoord.AgentConfig{Addr: addr, Workers: workers})
}

// Resume restores the coordinator from a checkpoint blob previously
// written via Options.CheckpointPath (or Session.Checkpoint) and runs the
// remaining rounds. The resumed run reproduces the uninterrupted run
// bit-for-bit, provided the Session was built with the same Options.
func (s *Session) Resume(checkpoint []byte) (Summary, error) {
	if err := s.runtime.Restore(checkpoint); err != nil {
		return Summary{}, err
	}
	sum := s.summarize(s.runtime.Run())
	s.Close()
	return sum, nil
}

// Checkpoint serializes the coordinator's current state (suite weights,
// RNG position, client utilities, optimizer and asynchronous scheduler
// state) into a self-describing blob accepted by Resume.
func (s *Session) Checkpoint() ([]byte, error) { return s.runtime.Checkpoint() }

// CheckpointError reports the first error encountered while encoding or
// writing checkpoints during Run, if any. Checkpoint failures never abort
// training; callers that rely on resumability should check this after Run.
func (s *Session) CheckpointError() error {
	s.sinkMu.Lock()
	defer s.sinkMu.Unlock()
	if s.sinkErr != nil {
		return s.sinkErr
	}
	return s.runtime.CheckpointErr()
}

func (s *Session) summarize(res fl.Result) Summary {
	sum := Summary{
		MeanAccuracy:   res.MeanAcc,
		ClientAccuracy: res.ClientAcc,
		AccuracyIQR:    res.Box.IQR(),
		TrainMACs:      res.Costs.TrainMACs,
		NetworkBytes:   res.Costs.NetworkBytes,
		StorageBytes:   res.Costs.StorageBytes,
		Rounds:         res.RoundsRun,
		Failures:       res.Failures,
		Retries:        res.Retries,
		AbortedRounds:  res.AbortedRounds,
		MeanStaleness:  res.MeanStaleness,
	}
	for _, rt := range res.RoundTimes() {
		sum.WallClock += rt
	}
	for _, m := range s.runtime.Suite() {
		sum.Models = append(sum.Models, ModelInfo{
			Arch: m.ArchString(), MACs: m.MACsPerSample(), Params: m.ParamCount(),
		})
	}
	return sum
}

// DeviceDisparity reports the max/min capacity ratio of the simulated
// trace.
func (s *Session) DeviceDisparity() float64 { return s.trace.Disparity() }

// Run is the one-call convenience API: configure, train, summarize.
func Run(opts Options) (Summary, error) {
	s, err := NewSession(opts)
	if err != nil {
		return Summary{}, err
	}
	return s.Run(), nil
}
