package fedtrans

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"

	"fedtrans/internal/netcoord"
	"fedtrans/internal/tensor"
	"fedtrans/internal/wire"
)

// ErrInferenceClosed reports a prediction submitted to a closed
// InferenceServer.
var ErrInferenceClosed = errors.New("fedtrans: inference server closed")

// DefaultMaxBatch bounds the rows of one coalesced forward pass when
// NewInferenceServer is given maxBatch <= 0.
const DefaultMaxBatch = 64

// InferenceServer turns a Deployed model into a high-throughput
// prediction service built on caller-runs lanes: GOMAXPROCS pooled
// inference sessions, fixed at construction. A caller that finds a lane
// free runs the forward pass itself, so a lone caller pays the direct
// cost — no goroutine hand-off. A caller that finds every lane busy
// queues; when a lane frees it goes to the head of the queue, which
// runs one strided batch forward over its own rows and the requests
// queued behind it (up to maxBatch rows) and answers them all. Batching
// therefore emerges exactly when there is a backlog, where amortizing
// the weight-matrix traffic pays. Requests and lanes are pooled — a
// steady-state prediction allocates nothing.
//
// Serve exposes the same lanes over TCP (FTNC PREDICT frames, see
// internal/netcoord); in-process callers just use Predict/PredictBatchInto.
type InferenceServer struct {
	d        *Deployed
	maxBatch int
	reqPool  sync.Pool

	mu         sync.Mutex
	free       []*inferSession // idle lanes; empty whenever the queue is not
	head, tail *inferReq       // callers waiting for a lane, FIFO
	active     int             // callers admitted and not yet answered
	closed     bool
	done       chan struct{} // closed once closed && active == 0

	passes int // forward passes formed; read by tests only
}

// inferReq is one prediction request: its rows in one of two forms, a
// caller-owned class slot per row, and the channel a queued caller
// parks on — it receives the freed lane (lead the next pass) or nil
// (a leader's pass answered this request).
type inferReq struct {
	rows  [][]float64
	wire  []byte // a PREDICT frame's big-endian float32 features
	class []int
	one   [1]int // Predict's class slot
	next  *inferReq
	ready chan *inferSession
}

// NewInferenceServer builds the lanes for the model, each warmed at
// maxBatch rows so later passes of any size reuse its workspaces.
// maxBatch bounds the rows coalesced into one forward pass (<= 0 uses
// DefaultMaxBatch); a single larger request is still served whole.
// Close releases the lanes.
func NewInferenceServer(d *Deployed, maxBatch int) *InferenceServer {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	s := &InferenceServer{d: d, maxBatch: maxBatch, done: make(chan struct{})}
	for range runtime.GOMAXPROCS(0) {
		lane := d.session()
		warm := lane.ensureIn(maxBatch, d.dim)
		warm.Zero()
		lane.m.Forward(warm)
		s.free = append(s.free, lane)
	}
	return s
}

func (s *InferenceServer) getReq() *inferReq {
	if r, ok := s.reqPool.Get().(*inferReq); ok {
		return r
	}
	return &inferReq{ready: make(chan *inferSession, 1)}
}

func (s *InferenceServer) putReq(r *inferReq) {
	clear(r.rows)
	r.class = nil
	s.reqPool.Put(r)
}

// Predict classifies one feature vector. Safe for concurrent use;
// steady-state calls allocate nothing.
func (s *InferenceServer) Predict(features []float64) (int, error) {
	if len(features) != s.d.dim {
		return 0, errDim(len(features), s.d.dim)
	}
	r := s.getReq()
	r.rows, r.class = append(r.rows[:0], features), r.one[:]
	err := s.serve(r)
	class := r.one[0]
	s.putReq(r)
	return class, err
}

// PredictBatchInto classifies a batch of feature vectors as one request
// (the rows stay contiguous in the forward pass) into a caller-owned
// class slice (len(out) must equal len(features)). A steady-state caller
// reusing its row and class buffers allocates nothing per request, which
// is what lets a serving frontend sustain its predictions/sec ceiling.
func (s *InferenceServer) PredictBatchInto(features [][]float64, out []int) error {
	for _, f := range features {
		if len(f) != s.d.dim {
			return errDim(len(f), s.d.dim)
		}
	}
	if len(out) != len(features) {
		return fmt.Errorf("fedtrans: class slice len %d, batch len %d", len(out), len(features))
	}
	r := s.getReq()
	r.rows, r.class = append(r.rows[:0], features...), out
	err := s.serve(r)
	s.putReq(r)
	return err
}

// serve answers r (rows validated by the caller): on a free lane the
// caller runs the pass itself, otherwise it queues until a leader's
// pass answers it or a freed lane makes it the next leader.
func (s *InferenceServer) serve(r *inferReq) error {
	if len(r.class) == 0 {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrInferenceClosed
	}
	s.active++
	var lane *inferSession
	if n := len(s.free); n > 0 {
		lane, s.free = s.free[n-1], s.free[:n-1]
		s.passes++
	} else {
		if s.tail == nil {
			s.head = r
		} else {
			s.tail.next = r
		}
		s.tail = r
	}
	s.mu.Unlock()
	if lane == nil {
		if lane = <-r.ready; lane == nil {
			return nil
		}
	}
	s.pass(lane, r)
	return nil
}

// pass runs one forward over the chain of requests r heads, answers
// the followers, and gives the lane up.
func (s *InferenceServer) pass(lane *inferSession, r *inferReq) {
	rows := 0
	for q := r; q != nil; q = q.next {
		rows += len(q.class)
	}
	x := lane.ensureIn(rows, s.d.dim)
	at := 0
	for q := r; q != nil; q = q.next {
		at += q.fill(x.Data[at:])
	}
	logits := lane.m.Forward(x)
	row, n := 0, 0
	for q := r; q != nil; n++ {
		for k := range q.class {
			q.class[k] = logits.ArgMaxRow(row)
			row++
		}
		next := q.next
		q.next = nil
		if q != r {
			q.ready <- nil // q may be reused from here on
		}
		q = next
	}
	s.release(lane, n)
}

// fill writes the request's rows into dst as backend floats and
// returns how many elements it wrote.
func (r *inferReq) fill(dst []tensor.Float) int {
	if r.wire != nil {
		n := len(r.wire) / 4
		wire.F32s(dst[:n], r.wire)
		return n
	}
	n := 0
	for _, row := range r.rows {
		for _, v := range row {
			dst[n] = tensor.Float(v)
			n++
		}
	}
	return n
}

// release retires the n requests of a finished pass and passes the lane
// on: to the head of the queue, together with the requests behind it
// that fit in maxBatch rows, or back to the free list.
func (s *InferenceServer) release(lane *inferSession, n int) {
	s.mu.Lock()
	s.active -= n
	h := s.head
	if h == nil {
		s.free = append(s.free, lane)
		if s.closed && s.active == 0 {
			s.shut()
		}
	} else {
		s.passes++
		last, rows := h, len(h.class)
		for q := last.next; q != nil && rows+len(q.class) <= s.maxBatch; q = last.next {
			last, rows = q, rows+len(q.class)
		}
		if s.head, last.next = last.next, nil; s.head == nil {
			s.tail = nil
		}
	}
	s.mu.Unlock()
	if h != nil {
		h.ready <- lane
	}
}

// shut returns the lanes to the model's session pool and wakes Close.
// Called with mu held, once, when the server is closed and drained.
func (s *InferenceServer) shut() {
	for _, lane := range s.free {
		s.d.release(lane)
	}
	s.free = nil
	close(s.done)
}

// Close returns after every admitted request is answered and the lanes
// are released. Subsequent predictions return ErrInferenceClosed. Safe
// to call more than once.
func (s *InferenceServer) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		if s.active == 0 {
			s.shut()
		}
	}
	s.mu.Unlock()
	<-s.done
}

// Serve answers FTNC PREDICT frames on ln through the lanes until the
// listener closes: each connection is its own goroutine and a caller
// like any other, so a few connections run their forwards in parallel
// and many coalesce into shared passes exactly like concurrent
// in-process callers. Blocks; run it in a goroutine and close ln (and
// then the server) to stop. A client that stalls mid-frame is dropped
// after the 2-minute frame deadline, so it cannot pin its goroutine
// forever; idle gaps between requests are never bounded. A frame's
// features are decoded from the wire straight into the lane's input and
// its classes land in the connection's own buffer, so a served frame
// allocates nothing.
func (s *InferenceServer) Serve(ln net.Listener) error {
	return netcoord.ServeInferenceRows(ln, s.d.dim, func() netcoord.RowsFunc {
		r := &inferReq{ready: make(chan *inferSession, 1)}
		return func(feats []byte, classes []int) error {
			r.wire, r.class = feats, classes
			return s.serve(r)
		}
	}, 0)
}

// InferenceClient is a connection to an InferenceServer.Serve endpoint.
// Not safe for concurrent use; open one per goroutine (the server
// batches across connections).
type InferenceClient struct {
	c *netcoord.InferClient
}

// DialInference connects to a remote inference endpoint.
func DialInference(addr string) (*InferenceClient, error) {
	c, err := netcoord.DialInference(addr)
	if err != nil {
		return nil, err
	}
	return &InferenceClient{c: c}, nil
}

// InputDim is the feature dimension the remote model expects.
func (c *InferenceClient) InputDim() int { return c.c.Dim() }

// PredictBatch classifies a batch remotely in one exchange of at most
// 1024 rows, the longest PREDICT frame a server reads. Features travel
// as float32 — the backend element type — so the remote prediction
// equals the local one.
func (c *InferenceClient) PredictBatch(rows [][]float64) ([]int, error) {
	return c.c.PredictBatch(rows)
}

// Close shuts the connection down.
func (c *InferenceClient) Close() error { return c.c.Close() }

func errDim(got, want int) error {
	return fmt.Errorf("fedtrans: feature dim %d, model expects %d", got, want)
}
