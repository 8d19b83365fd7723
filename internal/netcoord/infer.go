package netcoord

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"time"
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

// helloFrame is the length of a HELLO frame (type, CRC, magic,
// version): the most a peer may announce before it has said who it is.
const helloFrame = 5 + len(helloMagic) + 2

// ServeInference accepts connections on ln and answers PREDICT frames
// through predict until the listener closes. dim is the model's flat
// feature dimension, advertised in the WELCOME frame so clients can
// validate rows before they travel. Frame exchanges are bounded by
// DefaultIOTimeout; use ServeInferenceTimeout to pick the deadline.
func ServeInference(ln net.Listener, dim int, predict PredictFunc) error {
	return ServeInferenceTimeout(ln, dim, predict, DefaultIOTimeout)
}

// ServeInferenceTimeout is ServeInference with an explicit frame
// deadline (see ServeInferenceRows, which it adapts to: each
// connection widens its frames into reusable float64 rows).
func ServeInferenceTimeout(ln net.Listener, dim int, predict PredictFunc, timeout time.Duration) error {
	return ServeInferenceRows(ln, dim, func() RowsFunc {
		var rows [][]float64
		var vals []float64
		return func(feats []byte, classes []int) error {
			vals, rows = vals[:0], rows[:0]
			for i := 0; i < len(feats); i += 4 {
				vals = append(vals, float64(math.Float32frombits(binary.BigEndian.Uint32(feats[i:]))))
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
	}, timeout)
}

// ServeInferenceRows is the serving loop itself: newConn is called once
// per accepted connection and its RowsFunc answers that connection's
// frames, so per-connection state needs no locking. The handshake, each
// PREDICT body (once its header arrives), and each PREDICTRES write
// must complete within timeout, so one stalled client cannot pin its
// serving goroutine forever; the idle wait between requests on a
// healthy connection is never bounded. timeout 0 means
// DefaultIOTimeout; negative disables deadlines.
func ServeInferenceRows(ln net.Listener, dim int, newConn func() RowsFunc, timeout time.Duration) error {
	for {
		c, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go serveInferConn(c, dim, newConn(), normalizeTimeout(timeout))
	}
}

func serveInferConn(c net.Conn, dim int, predict RowsFunc, timeout time.Duration) {
	defer c.Close()
	fc := newFrameConnTimeout(c, timeout)
	fc.limit = uint32(helloFrame)
	t, payload, err := fc.read()
	if err != nil || t != ftHello || len(payload) != 6 ||
		string(payload[:4]) != helloMagic ||
		binary.BigEndian.Uint16(payload[4:]) != ProtoVersion {
		return
	}
	welcome := make([]byte, 0, 6)
	welcome = binary.BigEndian.AppendUint16(welcome, ProtoVersion)
	welcome = binary.BigEndian.AppendUint32(welcome, uint32(dim))
	if fc.write(ftWelcome, welcome) != nil {
		return
	}
	// A longer frame than maxPredictRows rows drops the connection: its
	// body is never read, so there is nothing to resynchronise on.
	fc.limit = uint32(min(13+maxPredictRows*int64(dim)*4, maxFrame))
	var classes []int
	var resp []byte
	for {
		// Idle read: a quiet client keeps its connection; one that
		// starts a frame must finish it within the deadline.
		t, payload, err := fc.readIdle()
		if err != nil {
			return
		}
		if t != ftPredict || len(payload) < 8 {
			return
		}
		n := int(binary.BigEndian.Uint32(payload))
		d := int(binary.BigEndian.Uint32(payload[4:]))
		if d != dim || len(payload) != 8+n*d*4 {
			resp = appendInferErr(resp[:0], fmt.Sprintf("bad PREDICT geometry: %d×%d over %d payload bytes (model dim %d)", n, d, len(payload)-8, dim))
		} else {
			if cap(classes) < n {
				classes = make([]int, n)
			}
			classes = classes[:n]
			if err := predict(payload[8:], classes); err != nil {
				resp = appendInferErr(resp[:0], err.Error())
			} else {
				resp = append(resp[:0], 0)
				resp = binary.BigEndian.AppendUint32(resp, uint32(n))
				for _, cl := range classes {
					resp = binary.BigEndian.AppendUint32(resp, uint32(cl))
				}
			}
		}
		if fc.write(ftPredictRes, resp) != nil {
			return
		}
	}
}

func appendInferErr(b []byte, msg string) []byte {
	b = append(b, 1)
	return append(b, msg...)
}

// InferClient is a remote-inference connection: lock-stepped PREDICT /
// PREDICTRES exchanges over one FTNC connection. Not safe for
// concurrent use; open one per goroutine.
type InferClient struct {
	fc  *frameConn
	dim int
	req []byte
}

// DialInference connects to a ServeInference endpoint and completes the
// handshake. Frame exchanges are bounded by DefaultIOTimeout; use
// DialInferenceTimeout to pick the deadline.
func DialInference(addr string) (*InferClient, error) {
	return DialInferenceTimeout(addr, DefaultIOTimeout)
}

// DialInferenceTimeout is DialInference with an explicit frame
// deadline applied to every exchange (handshake and each PREDICT /
// PREDICTRES round trip), so a stalled server surfaces ErrIOTimeout
// instead of blocking the caller forever. timeout 0 means
// DefaultIOTimeout; negative disables deadlines.
func DialInferenceTimeout(addr string, timeout time.Duration) (*InferClient, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netcoord: dial inference %s: %w", addr, err)
	}
	fc := newFrameConnTimeout(c, normalizeTimeout(timeout))
	hello := make([]byte, 0, 6)
	hello = append(hello, helloMagic...)
	hello = binary.BigEndian.AppendUint16(hello, ProtoVersion)
	if err := fc.write(ftHello, hello); err != nil {
		c.Close()
		return nil, fmt.Errorf("netcoord: inference handshake: %w", err)
	}
	t, payload, err := fc.read()
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("netcoord: inference handshake: %w", err)
	}
	if t != ftWelcome || len(payload) != 6 {
		c.Close()
		return nil, fmt.Errorf("%w: expected inference WELCOME", ErrBadHandshake)
	}
	if v := binary.BigEndian.Uint16(payload); v != ProtoVersion {
		c.Close()
		return nil, fmt.Errorf("%w: server speaks FTNC/%d, client FTNC/%d", ErrBadHandshake, v, ProtoVersion)
	}
	return &InferClient{fc: fc, dim: int(binary.BigEndian.Uint32(payload[2:]))}, nil
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
	b := c.req[:0]
	b = binary.BigEndian.AppendUint32(b, uint32(len(rows)))
	b = binary.BigEndian.AppendUint32(b, uint32(c.dim))
	for _, r := range rows {
		for _, v := range r {
			b = binary.BigEndian.AppendUint32(b, math.Float32bits(float32(v)))
		}
	}
	c.req = b
	if err := c.fc.write(ftPredict, b); err != nil {
		return nil, fmt.Errorf("netcoord: predict: %w", err)
	}
	t, payload, err := c.fc.read()
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("%w (inference server closed)", ErrAgentGone)
		}
		return nil, err
	}
	if t != ftPredictRes || len(payload) < 1 {
		return nil, fmt.Errorf("%w: expected PREDICTRES", ErrProtocol)
	}
	if payload[0] != 0 {
		return nil, fmt.Errorf("netcoord: inference server: %s", payload[1:])
	}
	if len(payload) < 5 {
		return nil, fmt.Errorf("%w: short PREDICTRES", ErrProtocol)
	}
	n := int(binary.BigEndian.Uint32(payload[1:]))
	if n != len(rows) || len(payload) != 5+4*n {
		return nil, fmt.Errorf("%w: PREDICTRES carries %d classes for %d rows", ErrProtocol, n, len(rows))
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(binary.BigEndian.Uint32(payload[5+4*i:]))
	}
	return out, nil
}
