package fl

import (
	"math/rand"
	"sync"

	"fedtrans/internal/compress"
	"fedtrans/internal/data"
	"fedtrans/internal/model"
	"fedtrans/internal/nn"
	"fedtrans/internal/tensor"
	"fedtrans/internal/xrand"
)

// localSession is a reusable client-training harness bound to one suite
// model: a fully materialized training clone (owned weight buffers, warm
// gradient storage and workspaces after the first client), a reseedable
// RNG, and recycled batch scratch. The streaming round loop draws
// sessions from a per-model pool so training a thousand clients per
// round costs a thousand weight memcpys, not a thousand model-sized
// allocations — the serial-equals-parallel guarantee is preserved
// because every piece of session state is either overwritten per client
// (weights, batch, RNG) or cleared per step (gradients).
type localSession struct {
	m   *model.Model
	opt *nn.SGD
	rng *rand.Rand
	idx []int
	by  []int
	bx  *tensor.Tensor
	// cur is the session's client-synthesis cursor: for generative
	// datasets, Fetch reuses its RNG and shard buffers so pulling a
	// client's shard on demand is allocation-free in steady state.
	cur data.ClientCursor
}

func newLocalSession(src *model.Model) *localSession {
	return &localSession{
		m:   src.Clone(),
		opt: nn.NewSGD(0),
		rng: rand.New(xrand.New(0)),
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
	s.rng.Seed(seed)
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
		for i, p := range s.m.Params() {
			copy(upload[i].Data, p.Data)
		}
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
			s.idx[i] = s.rng.Intn(n)
		}
		data.BatchInto(s.bx, s.by, cl.TrainX, cl.TrainY, s.idx)
		lossSum += s.m.TrainStep(s.bx, s.by, s.opt)
	}
	for i, p := range s.m.Params() {
		copy(upload[i].Data, p.Data)
	}
	return lossSum / float64(steps), n
}

// sessionPool hands out localSessions per model ID. Get/put are called
// from concurrent stream workers; the pool grows to at most the stream
// window's worth of sessions per model and retains them across rounds.
type sessionPool struct {
	mu   sync.Mutex
	free map[int][]*localSession
}

func (p *sessionPool) get(src *model.Model) *localSession {
	p.mu.Lock()
	list := p.free[src.ID]
	if n := len(list); n > 0 {
		s := list[n-1]
		p.free[src.ID] = list[:n-1]
		p.mu.Unlock()
		return s
	}
	p.mu.Unlock()
	// Clone outside the lock: concurrent clones of the same model are
	// safe, and the clone's buffers detach from src on first SetWeights.
	return newLocalSession(src)
}

func (p *sessionPool) put(modelID int, s *localSession) {
	p.mu.Lock()
	if p.free == nil {
		p.free = make(map[int][]*localSession)
	}
	p.free[modelID] = append(p.free[modelID], s)
	p.mu.Unlock()
}

// uploadPool recycles upload weight buffers (one tensor set shaped like
// a model's parameters) so a round's uplink traffic lives in O(stream
// window) buffers: the consumer folds a set into the accumulator and
// immediately returns it for the next client.
type uploadPool struct {
	mu   sync.Mutex
	free map[int][][]*tensor.Tensor
}

func (p *uploadPool) get(src *model.Model) []*tensor.Tensor {
	p.mu.Lock()
	list := p.free[src.ID]
	if n := len(list); n > 0 {
		set := list[n-1]
		p.free[src.ID] = list[:n-1]
		p.mu.Unlock()
		return set
	}
	p.mu.Unlock()
	params := src.Params()
	set := make([]*tensor.Tensor, len(params))
	for i, t := range params {
		set[i] = tensor.New(t.Shape...)
	}
	return set
}

func (p *uploadPool) put(modelID int, set []*tensor.Tensor) {
	p.mu.Lock()
	if p.free == nil {
		p.free = make(map[int][][]*tensor.Tensor)
	}
	p.free[modelID] = append(p.free[modelID], set)
	p.mu.Unlock()
}

// quploadPool recycles quantized-upload record sets (one QuantizedTensor
// per model parameter) the way uploadPool recycles dense weight sets:
// remote agents that quantize on-device ship codes the coordinator
// decodes into these records and folds directly, so the quantized
// uplink stays allocation-free in steady state.
type quploadPool struct {
	mu   sync.Mutex
	free map[int][][]compress.QuantizedTensor
}

func (p *quploadPool) get(src *model.Model) []compress.QuantizedTensor {
	p.mu.Lock()
	list := p.free[src.ID]
	if n := len(list); n > 0 {
		set := list[n-1]
		p.free[src.ID] = list[:n-1]
		p.mu.Unlock()
		return set
	}
	p.mu.Unlock()
	return make([]compress.QuantizedTensor, len(src.Params()))
}

func (p *quploadPool) put(modelID int, set []compress.QuantizedTensor) {
	p.mu.Lock()
	if p.free == nil {
		p.free = make(map[int][][]compress.QuantizedTensor)
	}
	p.free[modelID] = append(p.free[modelID], set)
	p.mu.Unlock()
}
