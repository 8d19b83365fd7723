package netcoord

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"fedtrans/internal/codec"
	"fedtrans/internal/fl"
	"fedtrans/internal/model"
	"fedtrans/internal/tensor"
	"fedtrans/internal/wire"
)

// Hub is the coordinator's side of the wire: it accepts agent
// connections and serves the FL runtime as its fl.Trainer, farming each
// local-training attempt out to an idle connection. Connections are
// checked out per attempt, so as many attempts as the runtime's stream
// runs at once (up to GOMAXPROCS) ride the pool concurrently while each
// connection stays lock-stepped.
//
// A connection that fails mid-attempt is dropped and the typed wire
// error is returned to the runtime, which retries the attempt (same
// seed, next attempt salt) through another connection; the agent
// redials. Determinism holds because training depends only on (weights,
// shard, seed), never on which connection carried it.
type Hub struct {
	ln      net.Listener
	welcome []byte
	timeout time.Duration
	idle    chan *agentConn

	mu           sync.Mutex
	conns        map[*agentConn]struct{}
	wireErrs     []error // the first maxWireErrs faults
	wireErrCount int     // every fault

	acc       *acceptor
	closed    chan struct{}
	closeOnce sync.Once
	running   sync.WaitGroup // the accept loop, which waits for its handshakes
}

// Hub must satisfy the runtime's remote-training hook.
var _ fl.Trainer = (*Hub)(nil)

// agentConn is one checked-out-able agent connection, with its
// per-connection model cache and a reusable request-payload buffer.
type agentConn struct {
	fc     *frameConn
	sent   map[int]bool
	reqBuf []byte
}

// NewHub listens on addr (host:port; port 0 picks a free port — see
// Addr) and starts accepting agents. cfg is sent to every agent in the
// WELCOME frame so it can synthesize the coordinator's exact client
// population.
func NewHub(addr string, cfg RunConfig) (*Hub, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netcoord: listen %s: %w", addr, err)
	}
	js, err := json.Marshal(cfg)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("netcoord: marshal run config: %w", err)
	}
	wh := welcomeHdr{version: ProtoVersion}
	var welcome wire.Enc
	wh.walk(wire.Encoding(&welcome))
	h := &Hub{
		ln:      ln,
		welcome: append(welcome.B, js...),
		timeout: normalizeTimeout(cfg.IOTimeout),
		idle:    make(chan *agentConn, 1024),
		conns:   make(map[*agentConn]struct{}),
		closed:  make(chan struct{}),
	}
	h.acc = newAcceptor(ln, h.timeout)
	h.running.Add(1)
	go func() {
		defer h.running.Done()
		h.acc.serve(h.admit)
	}()
	return h, nil
}

// Addr is the hub's actual listen address (useful with port 0).
func (h *Hub) Addr() string { return h.ln.Addr().String() }

// Close stops accepting agents, drops every connection, admitted or
// still handshaking, and returns once the accept loop and the handshakes
// have exited. Agents see their redial refused and exit. Safe to call
// more than once.
func (h *Hub) Close() {
	h.closeOnce.Do(func() {
		close(h.closed)
		h.ln.Close()
		h.mu.Lock()
		for ac := range h.conns {
			ac.fc.close()
		}
		h.conns = make(map[*agentConn]struct{})
		h.mu.Unlock()
	})
	h.running.Wait()
}

// closing reports whether Close has begun.
func (h *Hub) closing() bool {
	select {
	case <-h.closed:
		return true
	default:
		return false
	}
}

// maxWireErrs caps the wire faults a hub retains: a long-lived
// coordinator facing a flapping agent would otherwise grow the list
// without bound. Later faults are only counted.
const maxWireErrs = 64

// WireErrors returns the first maxWireErrs wire faults the hub has
// absorbed (each one cost an attempt retry); WireErrorCount has the
// total. For tests and diagnostics.
func (h *Hub) WireErrors() []error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]error(nil), h.wireErrs...)
}

// WireErrorCount returns how many wire faults the hub has absorbed,
// including those WireErrors no longer retains.
func (h *Hub) WireErrorCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.wireErrCount
}

func (h *Hub) recordErr(err error) {
	h.mu.Lock()
	h.wireErrCount++
	if len(h.wireErrs) < maxWireErrs {
		h.wireErrs = append(h.wireErrs, err)
	}
	h.mu.Unlock()
}

// admit answers an agent's HELLO with the WELCOME and parks the
// connection in the idle pool. Registering it under mu, after checking
// for Close, is what lets Close reach every admitted connection.
func (h *Hub) admit(fc *frameConn, err error) func() {
	if err != nil && !h.closing() {
		h.recordErr(fmt.Errorf("%w from %s", ErrBadHandshake, fc.c.RemoteAddr()))
	}
	if err == nil {
		err = fc.write(ftWelcome, h.welcome)
	}
	ac := &agentConn{fc: fc, sent: make(map[int]bool)}
	h.mu.Lock()
	ok := err == nil && !h.closing()
	if ok {
		h.conns[ac] = struct{}{}
	}
	h.mu.Unlock()
	if !ok {
		fc.close()
		return nil
	}
	h.checkin(ac)
	return nil
}

func (h *Hub) checkout() (*agentConn, error) {
	select {
	case ac := <-h.idle:
		return ac, nil
	case <-h.closed:
		return nil, ErrClosed
	}
}

func (h *Hub) checkin(ac *agentConn) {
	select {
	case h.idle <- ac:
	case <-h.closed:
		h.drop(ac)
	}
}

func (h *Hub) drop(ac *agentConn) {
	h.mu.Lock()
	delete(h.conns, ac)
	h.mu.Unlock()
	ac.fc.close()
}

// Train implements fl.Trainer: one attempt over the wire.
func (h *Hub) Train(m *model.Model, spec fl.TrainSpec, cfg fl.LocalConfig, upload []*tensor.Tensor) (float64, int, error) {
	ac, err := h.checkout()
	if err != nil {
		return 0, 0, err
	}
	loss, samples, err := h.trainOn(ac, m, spec, cfg, upload)
	if err != nil {
		h.recordErr(fmt.Errorf("round %d client %d attempt %d: %w",
			spec.Round, spec.Client, spec.Attempt, err))
		h.drop(ac)
		return 0, 0, err
	}
	h.checkin(ac)
	return loss, samples, nil
}

func (h *Hub) trainOn(ac *agentConn, m *model.Model, spec fl.TrainSpec, cfg fl.LocalConfig, upload []*tensor.Tensor) (float64, int, error) {
	if !ac.sent[m.ID] {
		blob, err := m.MarshalBinary()
		if err != nil {
			return 0, 0, fmt.Errorf("marshal model %d: %w", m.ID, err)
		}
		mh := modelHdr{model: uint32(m.ID)}
		e := wire.Enc{B: ac.reqBuf[:0]}
		mh.walk(wire.Encoding(&e))
		ac.reqBuf = append(e.B, blob...)
		if err := ac.fc.write(ftModel, ac.reqBuf); err != nil {
			return 0, 0, asWireErr(err)
		}
		ac.sent[m.ID] = true
	}

	th := trainHdr{
		model: uint32(m.ID), client: uint32(spec.Client), seed: uint64(spec.Seed),
		steps: uint32(cfg.Steps), batch: uint32(cfg.BatchSize), lr: cfg.LR, proxMu: cfg.ProxMu,
	}
	e := wire.Enc{B: ac.reqBuf[:0]}
	th.walk(wire.Encoding(&e))
	ac.reqBuf = codec.AppendEncode(e.B, m.Params())
	if err := ac.fc.write(ftTrain, ac.reqBuf); err != nil {
		return 0, 0, asWireErr(err)
	}

	// The reply owed is a TRAINRES carrying this upload and nothing
	// longer; an error message fits in the floor.
	ac.fc.limit = uint32(min(max(5+trainResHdrLen+codec.EncodedSize(upload), 4<<10), maxFrame))
	t, payload, err := ac.fc.read()
	if err != nil {
		return 0, 0, asWireErr(err)
	}
	if t != ftTrainRes {
		return 0, 0, fmt.Errorf("%w: frame 0x%02x where TRAINRES was due", ErrProtocol, t)
	}
	var res trainResHdr
	d := wire.NewDec(payload, &ftncErrs)
	res.walk(wire.Decoding(&d))
	weights := d.Rest()
	switch {
	case d.Err() != nil:
		return 0, 0, fmt.Errorf("%w: short TRAINRES (%d bytes)", d.Err(), len(payload))
	case res.status != 0:
		return 0, 0, fmt.Errorf("%w: agent error: %s", ErrProtocol, weights)
	case res.kind != 0:
		return 0, 0, fmt.Errorf("%w: TRAINRES kind %d, want 0 (dense FTW1)", ErrProtocol, res.kind)
	}
	if err := codec.DecodeInto(upload, weights); err != nil {
		return 0, 0, err
	}
	return res.loss, int(res.samples), nil
}

// asWireErr normalizes connection failures: typed frame errors pass
// through; everything else (including a clean EOF where a response was
// due) becomes ErrAgentGone.
func asWireErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrTruncatedFrame),
		errors.Is(err, ErrFrameCRC),
		errors.Is(err, ErrFrameSize),
		errors.Is(err, ErrProtocol),
		errors.Is(err, ErrIOTimeout):
		return err
	case errors.Is(err, io.EOF):
		return fmt.Errorf("%w (EOF with a response due)", ErrAgentGone)
	default:
		return fmt.Errorf("%w: %v", ErrAgentGone, err)
	}
}
