package fl

import (
	"math/rand"
	"sync"

	"fedtrans/internal/data"
	"fedtrans/internal/model"
	"fedtrans/internal/nn"
	"fedtrans/internal/tensor"
	"fedtrans/internal/xrand"
)

// localSession is a reusable client-training harness bound to one suite
// model: a fully materialized training clone (owned weight buffers, warm
// gradient storage and workspaces after the first client), a reseedable
// RNG (built by the first run: TrainLocal draws from its caller's RNG
// and evaluation draws nothing), and recycled batch scratch. The
// streaming round loop draws sessions from a per-model pool so training
// a thousand clients per round costs a thousand weight memcpys, not a
// thousand model-sized allocations — the serial-equals-parallel
// guarantee is preserved because every piece of session state is either
// overwritten per client (weights, batch, RNG) or cleared per step
// (gradients).
type localSession struct {
	m   *model.Model
	opt *nn.SGD
	rng *rand.Rand
	idx []int
	by  []int
	bx  *tensor.Tensor
	// cur is the session's client-synthesis cursor: for generative
	// datasets, FetchTrain (training) and Fetch (EvaluateAll) reuse its
	// RNG and shard buffers, so pulling a client's shard on demand is
	// allocation-free in steady state. Whoever holds the session owns it.
	cur data.ClientCursor
}

func newLocalSession(src *model.Model) *localSession {
	return &localSession{
		m:   src.Clone(),
		opt: nn.NewSGD(0),
		bx:  &tensor.Tensor{},
	}
}

// run downloads src's current weights into the session clone, reseeds
// the session RNG (an O(1) xrand re-seed, bit-compatible with the
// rand.New(rand.NewSource(seed)) the buffered loop used per client —
// pinned by xrand.TestReseedInPlace), trains locally, and copies
// the trained weights into the caller's upload buffers. It returns the
// mean training loss and the client's sample count. src is only read.
func (s *localSession) run(src *model.Model, cl *data.Client, cfg LocalConfig, seed int64, upload []*tensor.Tensor) (loss float64, samples int) {
	s.m.SetWeights(src.Params())
	if s.rng == nil {
		s.rng = rand.New(xrand.New(0))
	}
	s.rng.Seed(seed)
	loss, samples = s.train(cl, cfg, s.rng)
	for i, p := range s.m.Params() {
		copy(upload[i].Data, p.Data)
	}
	return loss, samples
}

// train runs local SGD on the session clone's current weights, drawing
// each step's batch indices from rng, and leaves the trained weights in
// the clone. It returns the mean training loss and the client's sample
// count; a zero-sample shard leaves the weights untouched.
func (s *localSession) train(cl *data.Client, cfg LocalConfig, rng *rand.Rand) (loss float64, samples int) {
	s.opt.LR = cfg.LR
	s.opt.ProxMu = cfg.ProxMu
	if cfg.ProxMu > 0 {
		// FedProx anchors at the just-downloaded weights; SetProxAnchor
		// copies, so later SGD writes do not drift the anchor.
		for _, p := range s.m.Params() {
			s.opt.SetProxAnchor(p, p.Data)
		}
	}
	n := len(cl.TrainY)
	if n == 0 {
		// A zero-sample shard has nothing to train on: hand back the
		// downloaded weights untouched with Samples 0 — zero FedAvg
		// weight, so the coordinator never folds the update. Without
		// this guard the batch sampler below panics on Intn(0).
		return 0, 0
	}
	steps := cfg.Steps
	if steps < 1 {
		steps = 1
	}
	bs := cfg.BatchSize
	if bs > n {
		bs = n
	}
	if cap(s.idx) >= bs {
		s.idx = s.idx[:bs]
	} else {
		s.idx = make([]int, bs)
	}
	if cap(s.by) >= bs {
		s.by = s.by[:bs]
	} else {
		s.by = make([]int, bs)
	}
	lossSum := 0.0
	for st := 0; st < steps; st++ {
		for i := range s.idx {
			s.idx[i] = rng.Intn(n)
		}
		data.BatchInto(s.bx, s.by, cl.TrainX, cl.TrainY, s.idx)
		lossSum += s.m.TrainStep(s.bx, s.by, s.opt)
	}
	return lossSum / float64(steps), n
}

// modelPool is a free list keyed by model ID, shared by concurrent
// stream workers. The runtime keeps two: training sessions, and upload
// weight buffers (one tensor set shaped like a model's parameters), so a
// round's clones and uplink traffic live in O(stream window) values per
// model — the consumer folds an upload into the accumulator and
// immediately returns it for the next client — retained across rounds.
type modelPool[T any] struct {
	mu   sync.Mutex
	free map[int][]T
}

// get pops a pooled value for src's model ID, or builds one with mk.
func (p *modelPool[T]) get(src *model.Model, mk func(*model.Model) T) T {
	p.mu.Lock()
	list := p.free[src.ID]
	if n := len(list); n > 0 {
		v := list[n-1]
		p.free[src.ID] = list[:n-1]
		p.mu.Unlock()
		return v
	}
	p.mu.Unlock()
	// Build outside the lock: concurrent clones of the same model are
	// safe, and a clone's buffers detach from src on first SetWeights.
	return mk(src)
}

func (p *modelPool[T]) put(modelID int, v T) {
	p.mu.Lock()
	if p.free == nil {
		p.free = make(map[int][]T)
	}
	p.free[modelID] = append(p.free[modelID], v)
	p.mu.Unlock()
}

// NewUploadSet allocates one upload buffer set shaped like src's
// parameters: the one shape rule for where a local session writes its
// update, in process and on a remote agent.
func NewUploadSet(src *model.Model) []*tensor.Tensor {
	params := src.Params()
	set := make([]*tensor.Tensor, len(params))
	for i, t := range params {
		set[i] = tensor.New(t.Shape...)
	}
	return set
}
