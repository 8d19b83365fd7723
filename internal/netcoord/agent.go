package netcoord

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fedtrans/internal/codec"
	"fedtrans/internal/data"
	"fedtrans/internal/fl"
	"fedtrans/internal/model"
	"fedtrans/internal/tensor"
	"fedtrans/internal/wire"
)

// AgentConfig describes a client-agent pool.
type AgentConfig struct {
	// Addr is the coordinator's host:port.
	Addr string
	// Workers is the number of concurrent connections, at least 1; each
	// serves one training attempt at a time.
	Workers int
}

// dialBudget bounds the retries of one (re)connect. Frame exchanges run
// under the deadline the coordinator's WELCOME names.
const dialBudget = 30 * time.Second

// RunAgents connects Workers agent connections to the coordinator,
// synthesizes the client population the WELCOME frame describes (bit-
// identical to the coordinator's, since generation is pure in the
// config), and serves training requests until the coordinator closes.
// Returns nil on a clean shutdown (coordinator finished), or the first
// fatal error (handshake or protocol failure; lost connections redial
// instead).
func RunAgents(cfg AgentConfig) error {
	if cfg.Workers < 1 {
		return fmt.Errorf("netcoord: %d agent workers, want at least 1", cfg.Workers)
	}
	// The dataset is shared across workers: synthesis can dominate
	// startup, and shards are read-only during training.
	var (
		dsMu sync.Mutex
		ds   *data.Dataset
	)
	getDS := func(rc RunConfig) *data.Dataset {
		dsMu.Lock()
		defer dsMu.Unlock()
		if ds == nil {
			if rc.Generative {
				ds = data.GenerateLazy(rc.Data)
			} else {
				ds = data.Generate(rc.Data)
			}
		}
		return ds
	}
	// served is pool-wide: once the coordinator has answered any worker,
	// a refused dial means the run is over — also for a worker that never
	// got a connection of its own in, which a short run can end before.
	var served atomic.Bool
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = agentLoop(cfg.Addr, dialBudget, getDS, &served)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// errReconnect tells agentLoop a welcomed connection is gone but the run
// may still be live: redial.
var errReconnect = errors.New("netcoord: connection lost, reconnecting")

// agentLoop is one worker. The hub drops a connection whenever an
// attempt on it fails (a short or corrupt frame, a timeout, an error
// reply), and the run goes on without it, so a lost connection — even a
// clean EOF between frames — is redialed. The run is over when a served
// pool's redial is refused or a new connection gets no WELCOME.
func agentLoop(addr string, budget time.Duration, getDS func(RunConfig) *data.Dataset, served *atomic.Bool) error {
	for {
		c, err := dialRetry(addr, budget, served)
		if err != nil {
			if served.Load() {
				return nil
			}
			return err
		}
		err = serveConn(c, getDS)
		if err != nil && !errors.Is(err, errReconnect) {
			return err
		}
		served.Store(true)
		if err == nil {
			return nil
		}
	}
}

// dialRetry redials until it connects, the budget runs out, or the
// pool has been served and the dial is refused: a coordinator that
// answered and no longer listens is gone, where a dial that merely
// times out may still reach a busy one.
func dialRetry(addr string, budget time.Duration, served *atomic.Bool) (net.Conn, error) {
	deadline := time.Now().Add(budget)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return c, nil
		}
		if served.Load() && errors.Is(err, syscall.ECONNREFUSED) || time.Now().After(deadline) {
			return nil, fmt.Errorf("netcoord: dial %s: %w", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// connState is everything one connection accumulates: per-model pooled
// training harnesses with their recycled upload buffers, all scoped to
// a connection-local ID generator so redials start clean.
type connState struct {
	ds       *data.Dataset
	trainers map[uint32]*fl.ClientTrainer
	uploads  map[uint32][]*tensor.Tensor
	resp     []byte
}

// serveConn serves one connection: nil if it got no WELCOME (the
// coordinator is gone), errReconnect if it was lost after one.
func serveConn(c net.Conn, getDS func(RunConfig) *data.Dataset) error {
	defer c.Close()
	fc := newFrameConn(c)

	if err := fc.sendHello(); err != nil {
		return nil
	}
	t, payload, err := fc.read()
	if err != nil {
		return nil
	}
	var wh welcomeHdr
	d := wire.NewDec(payload, &ftncErrs)
	wh.walk(wire.Decoding(&d))
	js := d.Rest()
	if t != ftWelcome || d.Err() != nil {
		return fmt.Errorf("%w: expected WELCOME, got frame 0x%02x", ErrBadHandshake, t)
	}
	if wh.version != ProtoVersion {
		return fmt.Errorf("%w: coordinator speaks FTNC/%d, this agent FTNC/%d", ErrBadHandshake, wh.version, ProtoVersion)
	}
	var rc RunConfig
	if err := json.Unmarshal(js, &rc); err != nil {
		return fmt.Errorf("%w: WELCOME config: %v", ErrBadHandshake, err)
	}
	// The dataset the config describes is built on a worker goroutine:
	// one data.Generate would panic on, or could not hold, ends here.
	if _, err := rc.Data.Check(rc.Generative); err != nil {
		return fmt.Errorf("%w: WELCOME config: %v", ErrBadHandshake, err)
	}
	fc.timeout = normalizeTimeout(rc.IOTimeout)
	ds := getDS(rc)

	gen := model.NewIDGen()
	st := &connState{
		ds:       ds,
		trainers: make(map[uint32]*fl.ClientTrainer),
		uploads:  make(map[uint32][]*tensor.Tensor),
	}
	for {
		// Idle read: the gap until the coordinator's next request is
		// unbounded (rounds can be arbitrarily far apart), but a request
		// that starts must finish within the frame deadline.
		t, payload, err := fc.readIdle()
		if err != nil {
			return errReconnect
		}
		switch t {
		case ftModel:
			if err := st.handleModel(payload, gen); err != nil {
				return err
			}
		case ftTrain:
			if err := st.handleTrain(fc, payload); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: unexpected frame 0x%02x", ErrProtocol, t)
		}
	}
}

func (st *connState) handleModel(payload []byte, gen *model.IDGen) error {
	var mh modelHdr
	d := wire.NewDec(payload, &ftncErrs)
	mh.walk(wire.Decoding(&d))
	if d.Err() != nil {
		return fmt.Errorf("%w: short MODEL frame", d.Err())
	}
	m, err := model.UnmarshalModelScoped(d.Rest(), gen)
	if err != nil {
		return fmt.Errorf("netcoord: MODEL frame: %w", err)
	}
	st.trainers[mh.model] = fl.NewClientTrainer(st.ds, m)
	st.uploads[mh.model] = fl.NewUploadSet(m)
	return nil
}

func (st *connState) handleTrain(fc *frameConn, payload []byte) error {
	var th trainHdr
	d := wire.NewDec(payload, &ftncErrs)
	th.walk(wire.Decoding(&d))
	weights := d.Rest()
	if d.Err() != nil {
		return fmt.Errorf("%w: short TRAIN frame", d.Err())
	}
	id, client, seed, flags := th.model, int(th.client), int64(th.seed), th.flags
	lcfg := fl.LocalConfig{Steps: int(th.steps), BatchSize: int(th.batch), LR: th.lr, ProxMu: th.proxMu}
	// The fields come off the wire: a client outside the population or an
	// empty batch would index out of range inside training, on a worker
	// goroutine, and take the whole agent process down.
	tr := st.trainers[id]
	var bad string
	switch {
	case tr == nil:
		bad = fmt.Sprintf("unknown model %d", id)
	case flags != 0:
		bad = fmt.Sprintf("unsupported flags 0x%02x (reserved, must be 0)", flags)
	case client >= st.ds.Len():
		bad = fmt.Sprintf("client %d outside the population of %d", client, st.ds.Len())
	case lcfg.Steps < 1 || lcfg.BatchSize < 1:
		bad = fmt.Sprintf("steps %d, batch %d: both must be at least 1", lcfg.Steps, lcfg.BatchSize)
	case !finite(lcfg.LR) || !finite(lcfg.ProxMu):
		bad = fmt.Sprintf("non-finite lr %v or proxMu %v", lcfg.LR, lcfg.ProxMu)
	}
	if bad == "" {
		if err := codec.DecodeInto(tr.Model().Params(), weights); err != nil {
			bad = fmt.Sprintf("weights: %v", err)
		}
	}
	if bad != "" {
		st.resp = errPayload(st.resp[:0], bad)
	} else {
		loss, samples := tr.Train(client, lcfg, seed, st.uploads[id])
		res := trainResHdr{loss: loss, samples: uint32(samples)}
		e := wire.Enc{B: st.resp[:0]}
		res.walk(wire.Encoding(&e))
		st.resp = codec.AppendEncode(e.B, st.uploads[id])
	}
	if err := fc.write(ftTrainRes, st.resp); err != nil {
		return errReconnect
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
