package netcoord

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fedtrans/internal/chaos"
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
	// Workers is the number of concurrent connections (each one serves
	// one training attempt at a time). Defaults to 1.
	Workers int
	// DialTimeout bounds each (re)connect attempt's total retry budget.
	// Defaults to 30s.
	DialTimeout time.Duration
	// IOTimeout bounds each frame exchange (writes, response reads, and
	// the body of a request whose header has arrived; idle waits between
	// requests are never bounded). 0 adopts the coordinator's WELCOME
	// value (DefaultIOTimeout if it sent none); negative disables
	// deadlines.
	IOTimeout time.Duration
	// WireChaos injects deterministic transport faults into uploads
	// (tests): the mangled attempt fails on the coordinator, which
	// retries it, and this worker redials.
	WireChaos chaos.WireConfig
}

// RunAgents connects Workers agent connections to the coordinator,
// synthesizes the client population the WELCOME frame describes (bit-
// identical to the coordinator's, since generation is pure in the
// config), and serves training requests until the coordinator closes.
// Returns nil on a clean shutdown (coordinator finished), or the first
// fatal error (handshake or protocol failure; lost connections redial
// instead).
func RunAgents(cfg AgentConfig) error {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 30 * time.Second
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
			errs[w] = agentLoop(cfg, getDS, &served)
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

// errReconnect tells agentLoop the connection is gone (injected fault,
// coordinator-dropped conn) but the run may still be live: redial.
var errReconnect = errors.New("netcoord: connection lost, reconnecting")

func agentLoop(cfg AgentConfig, getDS func(RunConfig) *data.Dataset, served *atomic.Bool) error {
	winj := chaos.NewWire(cfg.WireChaos)
	for {
		c, err := dialRetry(cfg.Addr, cfg.DialTimeout, served)
		if err != nil {
			if served.Load() {
				// The coordinator answered earlier and is now gone: the
				// run is over.
				return nil
			}
			return err
		}
		err = serveConn(c, cfg.IOTimeout, getDS, winj)
		switch {
		case err == nil:
			served.Store(true)
			return nil
		case errors.Is(err, errReconnect):
			served.Store(true)
		default:
			return err
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

func serveConn(c net.Conn, ioTimeout time.Duration, getDS func(RunConfig) *data.Dataset, winj *chaos.WireInjector) error {
	defer c.Close()
	fc := newFrameConnTimeout(c, normalizeTimeout(ioTimeout))

	if err := fc.sendHello(); err != nil {
		return errReconnect
	}
	t, payload, err := fc.read()
	if err != nil {
		return errReconnect
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
	if ioTimeout == 0 && rc.IOTimeout != 0 {
		// No local override: adopt the coordinator's frame deadline.
		fc.timeout = normalizeTimeout(rc.IOTimeout)
	}
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
			if errors.Is(err, io.EOF) {
				return nil // clean close at a frame boundary: run over
			}
			return errReconnect
		}
		switch t {
		case ftModel:
			if err := st.handleModel(payload, gen); err != nil {
				return err
			}
		case ftTrain:
			if err := st.handleTrain(fc, payload, winj); err != nil {
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
	params := m.Params()
	up := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		up[i] = tensor.New(p.Shape...)
	}
	st.uploads[mh.model] = up
	return nil
}

func (st *connState) handleTrain(fc *frameConn, payload []byte, winj *chaos.WireInjector) error {
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
	if bad != "" {
		return st.respondErr(fc, winj, seed, bad)
	}
	if err := codec.DecodeInto(tr.Model().Params(), weights); err != nil {
		return st.respondErr(fc, winj, seed, fmt.Sprintf("weights: %v", err))
	}
	loss, samples := tr.Train(client, lcfg, seed, st.uploads[id])

	res := trainResHdr{loss: loss, samples: uint32(samples)}
	e := wire.Enc{B: st.resp[:0]}
	res.walk(wire.Encoding(&e))
	st.resp = codec.AppendEncode(e.B, st.uploads[id])
	return st.send(fc, winj, seed, st.resp)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func (st *connState) respondErr(fc *frameConn, winj *chaos.WireInjector, seed int64, msg string) error {
	st.resp = errPayload(st.resp[:0], msg)
	return st.send(fc, winj, seed, st.resp)
}

// send writes the TRAINRES frame, applying any wire fault drawn for
// this attempt's seed. An injected fault poisons the connection, so the
// worker redials; the coordinator retries the attempt elsewhere.
func (st *connState) send(fc *frameConn, winj *chaos.WireInjector, seed int64, payload []byte) error {
	if f := winj.Fault(seed); f != chaos.WireNone {
		fc.mangle = f
		fc.write(ftTrainRes, payload)
		fc.mangle = chaos.WireNone
		return errReconnect
	}
	if err := fc.write(ftTrainRes, payload); err != nil {
		return errReconnect
	}
	return nil
}
