package netcoord

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"time"

	"fedtrans/internal/wire"
)

// PredictFunc answers one batch of flat feature rows with one class per
// row. Implementations must be safe for concurrent calls: every
// inference connection is served by its own goroutine.
type PredictFunc func(rows [][]float64) ([]int, error)

// RowsFunc answers one PREDICT frame in wire form: feats holds the
// frame's len(classes)·dim big-endian float32 features, valid only
// during the call, and the class of row i goes into classes[i].
type RowsFunc func(feats []byte, classes []int) error

// maxPredictRows bounds the rows of one PREDICT frame: past the
// handshake an inference connection refuses (and never allocates for) a
// frame longer than 13 + maxPredictRows·dim·4 bytes. Clients batch 8
// rows a frame; 1024 leaves room for bulk scoring while keeping the
// per-connection read buffer at 4·dim KiB.
const maxPredictRows = 1024

// ServeInference accepts connections on ln and answers PREDICT frames
// through predict until the listener closes. dim is the model's flat
// feature dimension, advertised in the WELCOME frame so clients can
// validate rows before they travel. Frame exchanges are bounded by
// DefaultIOTimeout; ServeInferenceRows takes an explicit deadline.
func ServeInference(ln net.Listener, dim int, predict PredictFunc) error {
	return ServeInferenceRows(ln, dim, func() RowsFunc { return widenRows(dim, predict) }, DefaultIOTimeout)
}

// widenRows adapts predict to one connection's frames: each frame is
// widened into float64 rows the connection reuses.
func widenRows(dim int, predict PredictFunc) RowsFunc {
	var rows [][]float64
	var vals []float64
	var f32 []float32
	return func(feats []byte, classes []int) error {
		f32 = slices.Grow(f32[:0], len(feats)/4)[:len(feats)/4]
		wire.F32s(f32, feats)
		vals, rows = vals[:0], rows[:0]
		for _, v := range f32 {
			vals = append(vals, float64(v))
		}
		for i := range classes {
			rows = append(rows, vals[i*dim:(i+1)*dim])
		}
		got, err := predict(rows)
		if err == nil && len(got) != len(classes) {
			err = fmt.Errorf("netcoord: predict returned %d classes for %d rows", len(got), len(classes))
		}
		copy(classes, got)
		return err
	}
}

// ServeInferenceRows is the serving loop itself: newConn is called once
// per handshaken connection and its RowsFunc answers that connection's
// frames, so per-connection state needs no locking. Connections are
// accepted the way the hub accepts agents: at most maxHandshakes wait
// for HELLO at once, each for at most helloTimeout, and closing ln
// closes those still waiting. Each PREDICT body (once its header
// arrives) and each PREDICTRES write must complete within timeout, so
// one stalled client cannot pin its serving goroutine forever; the idle
// wait between requests on a healthy connection is never bounded.
// timeout 0 means DefaultIOTimeout; negative disables deadlines.
func ServeInferenceRows(ln net.Listener, dim int, newConn func() RowsFunc, timeout time.Duration) error {
	return newAcceptor(ln, normalizeTimeout(timeout)).serve(inferHello(dim, newConn))
}

// inferHello is the inference endpoint's answer to a HELLO read: a
// connection that said HELLO is served by serveInferConn.
func inferHello(dim int, newConn func() RowsFunc) func(*frameConn, error) func() {
	return func(fc *frameConn, err error) func() {
		if err != nil {
			fc.close()
			return nil
		}
		return func() { serveInferConn(fc, dim, newConn()) }
	}
}

// serveInferConn sends a connection that said HELLO the WELCOME and
// answers its PREDICT frames until it closes or fails.
func serveInferConn(fc *frameConn, dim int, predict RowsFunc) {
	defer fc.close()
	wh := welcomeHdr{version: ProtoVersion, dim: uint32(dim)}
	var e wire.Enc // the response buffer, reused across frames
	wh.walkInfer(wire.Encoding(&e))
	if fc.write(ftWelcome, e.B) != nil {
		return
	}
	// A longer frame than maxPredictRows rows drops the connection: its
	// body is never read, so there is nothing to resynchronise on.
	fc.limit = uint32(min(13+maxPredictRows*int64(dim)*4, maxFrame))
	var res predictRes
	for {
		// Idle read: a quiet client keeps its connection; one that
		// starts a frame must finish it within the deadline.
		t, payload, err := fc.readIdle()
		if err != nil || t != ftPredict {
			return
		}
		var ph predictHdr
		dec := wire.NewDec(payload, &ftncErrs)
		ph.walk(wire.Decoding(&dec))
		feats := dec.Rest()
		if dec.Err() != nil {
			return
		}
		// The frame limit bounds the rows only while a row has bytes: hold
		// a dim-0 model's frames to maxPredictRows too, before sizing the
		// class list from the header.
		n, d := int(ph.rows), int(ph.dim)
		if d != dim || n > maxPredictRows || len(feats) != n*d*4 {
			e.B = errPayload(e.B[:0], fmt.Sprintf("bad PREDICT geometry: %d×%d over %d payload bytes (model dim %d)", n, d, len(feats), dim))
		} else {
			res.classes = slices.Grow(res.classes[:0], n)[:n]
			if err := predict(feats, res.classes); err != nil {
				e.B = errPayload(e.B[:0], err.Error())
			} else {
				e.B = e.B[:0]
				res.walk(wire.Encoding(&e))
			}
		}
		if fc.write(ftPredictRes, e.B) != nil {
			return
		}
	}
}

// InferClient is a remote-inference connection: lock-stepped PREDICT /
// PREDICTRES exchanges over one FTNC connection. Not safe for
// concurrent use; open one per goroutine.
type InferClient struct {
	fc  *frameConn
	dim int
	req []byte
	f32 []float32 // one row narrowed to the wire's element type
}

// DialInference connects to a ServeInference endpoint and completes the
// handshake. Every exchange (handshake and each PREDICT / PREDICTRES
// round trip) is bounded by DefaultIOTimeout, so a stalled server
// surfaces ErrIOTimeout instead of blocking the caller forever.
func DialInference(addr string) (*InferClient, error) {
	return dialInference(addr, DefaultIOTimeout)
}

// dialInference is DialInference with an explicit frame deadline:
// timeout 0 means DefaultIOTimeout; negative disables deadlines.
func dialInference(addr string, timeout time.Duration) (*InferClient, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netcoord: dial inference %s: %w", addr, err)
	}
	fc := newFrameConnTimeout(c, normalizeTimeout(timeout))
	if err := fc.sendHello(); err != nil {
		c.Close()
		return nil, fmt.Errorf("netcoord: inference handshake: %w", err)
	}
	t, payload, err := fc.read()
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("netcoord: inference handshake: %w", err)
	}
	var wh welcomeHdr
	d := wire.NewDec(payload, &ftncErrs)
	if wh.walkInfer(wire.Decoding(&d)); t != ftWelcome || d.Done() != nil {
		c.Close()
		return nil, fmt.Errorf("%w: expected inference WELCOME", ErrBadHandshake)
	}
	if wh.version != ProtoVersion {
		c.Close()
		return nil, fmt.Errorf("%w: server speaks FTNC/%d, client FTNC/%d", ErrBadHandshake, wh.version, ProtoVersion)
	}
	return &InferClient{fc: fc, dim: int(wh.dim)}, nil
}

// Dim is the feature dimension the server's model expects.
func (c *InferClient) Dim() int { return c.dim }

// Close shuts the connection down.
func (c *InferClient) Close() error { return c.fc.close() }

// Predict classifies one feature vector.
func (c *InferClient) Predict(features []float64) (int, error) {
	out, err := c.predict([][]float64{features})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// PredictBatch classifies a batch of feature vectors in one exchange.
func (c *InferClient) PredictBatch(rows [][]float64) ([]int, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	return c.predict(rows)
}

func (c *InferClient) predict(rows [][]float64) ([]int, error) {
	if len(rows) > maxPredictRows {
		return nil, fmt.Errorf("netcoord: %d rows in one PREDICT frame, the server reads at most %d", len(rows), maxPredictRows)
	}
	for i, r := range rows {
		if len(r) != c.dim {
			return nil, fmt.Errorf("netcoord: row %d feature dim %d, server expects %d", i, len(r), c.dim)
		}
	}
	ph := predictHdr{rows: uint32(len(rows)), dim: uint32(c.dim)}
	e := wire.Enc{B: c.req[:0]}
	ph.walk(wire.Encoding(&e))
	for _, r := range rows {
		c.f32 = c.f32[:0]
		for _, v := range r {
			c.f32 = append(c.f32, float32(v))
		}
		e.B = wire.AppendF32s(e.B, c.f32)
	}
	c.req = e.B
	if err := c.fc.write(ftPredict, c.req); err != nil {
		return nil, fmt.Errorf("netcoord: predict: %w", err)
	}
	t, payload, err := c.fc.read()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("%w (inference server closed)", ErrAgentGone)
		}
		return nil, err
	}
	var res predictRes
	d := wire.NewDec(payload, &ftncErrs)
	res.walk(wire.Decoding(&d))
	msg := d.Rest()
	switch {
	case t != ftPredictRes || d.Err() != nil:
		return nil, fmt.Errorf("%w: expected PREDICTRES", ErrProtocol)
	case res.status != 0:
		return nil, fmt.Errorf("netcoord: inference server: %s", msg)
	case len(res.classes) != len(rows) || len(msg) != 0:
		return nil, fmt.Errorf("%w: PREDICTRES carries %d classes for %d rows", ErrProtocol, len(res.classes), len(rows))
	}
	return res.classes, nil
}
