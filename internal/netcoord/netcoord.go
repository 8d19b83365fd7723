// Package netcoord is the networked coordinator: it moves the FL
// runtime's client local-training (and, separately, model inference)
// across a TCP process boundary while preserving the repository's
// byte-identical-results guarantee. The coordinator side (Hub) plugs
// into the runtime as its fl.Trainer; the agent side (RunAgents) is a
// pool of worker connections that download weights, train through the
// same pooled session harness the in-process path uses, and upload
// trained updates. Training is a pure function of (weights,
// architecture, client shard, seed), and the FTW1 weight codec is
// lossless, so a loopback run commits exactly the bits an in-process
// run commits.
//
// # Connection protocol (FTNC/1)
//
// Every connection carries a stream of length-prefixed frames (byte
// order, checksum and the decoders' error contract are internal/wire's,
// shared with the FTW1 and FTCP formats):
//
//	length  uint32  bytes that follow (type + crc + payload)
//	type    uint8   frame type (below)
//	crc32   uint32  IEEE checksum of payload
//	payload length−5 bytes
//
// A frame whose CRC does not match is rejected with ErrFrameCRC; a
// connection that dies inside a frame surfaces ErrTruncatedFrame. Both
// fail only the in-flight attempt — the runtime's retry/quorum
// machinery redials through the remaining connections.
//
// Handshake: the connecting agent sends HELLO ("FTNC" + uint16
// version); the coordinator replies WELCOME (uint16 version + a JSON
// RunConfig describing the dataset geometry the agent must synthesize).
// Version mismatches are rejected with ErrBadHandshake on whichever
// side noticed — the version is a hard gate, not a negotiation, because
// both ends must agree bit-for-bit about every payload layout.
//
// Frame types (each fixed-width prefix below is one struct and one walk
// in headers.go, run by both ends; before the HELLO a peer may announce
// no frame longer than a HELLO, and the coordinator then reads no
// TRAINRES longer than the upload it asked for):
//
//	0x01 HELLO       agent → coord   "FTNC", uint16 version
//	0x02 WELCOME     coord → agent   uint16 version, RunConfig JSON
//	                 (inference endpoints reply uint16 version,
//	                 uint32 featureDim instead)
//	0x03 MODEL       coord → agent   uint32 model ID, model blob
//	                 (model.MarshalBinary: arch JSON + FTW1 weights),
//	                 sent once per (connection, model)
//	0x04 TRAIN       coord → agent   uint32 model ID, uint32 client,
//	                 uint64 seed, uint8 flags (reserved, must be 0),
//	                 uint32 steps, uint32 batch, float64 lr,
//	                 float64 proxMu, FTW1 current weights
//	0x05 TRAINRES    agent → coord   uint8 status (0 ok; else the rest
//	                 is an error message), float64 loss, uint32 samples,
//	                 uint8 kind (0 (dense FTW1); other values rejected),
//	                 FTW1 trained weights
//	0x06 PREDICT     client → server uint32 rows, uint32 dim,
//	                 rows×dim float32 features
//	0x07 PREDICTRES  server → client uint8 status (0 ok; else message),
//	                 uint32 rows, rows × uint32 class
//
// Connections are lock-stepped (one outstanding request each);
// concurrency comes from the runtime's stream window fanning out over
// the connection pool, so no request IDs are needed.
package netcoord

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"fedtrans/internal/data"
	"fedtrans/internal/fl"
	"fedtrans/internal/wire"
)

// ProtoVersion is the FTNC connection-protocol version. Both ends must
// match exactly.
const ProtoVersion = 1

const (
	helloMagic = "FTNC"
	// maxFrame bounds a frame's length field so a corrupted or hostile
	// header cannot drive a huge allocation.
	maxFrame = 1 << 28
)

// Frame types.
const (
	ftHello      = 0x01
	ftWelcome    = 0x02
	ftModel      = 0x03
	ftTrain      = 0x04
	ftTrainRes   = 0x05
	ftPredict    = 0x06
	ftPredictRes = 0x07
)

// Typed wire errors. Frame-level failures (truncation, checksum, size,
// protocol violations) identify what the peer sent; ErrAgentGone marks
// a connection that died between frames with a request outstanding.
var (
	ErrTruncatedFrame = errors.New("netcoord: truncated frame")
	ErrFrameCRC       = errors.New("netcoord: frame checksum mismatch")
	ErrFrameSize      = errors.New("netcoord: frame exceeds size bound")
	ErrBadHandshake   = errors.New("netcoord: bad handshake")
	ErrProtocol       = errors.New("netcoord: protocol violation")
	ErrAgentGone      = errors.New("netcoord: agent connection lost")
	// ErrIOTimeout reports a peer that stalled past the connection's
	// frame deadline: a write that would not drain, a response that never
	// arrived, or a frame whose body stopped mid-stream. Like the other
	// wire errors it fails only the in-flight attempt; the stalled
	// connection is dropped.
	ErrIOTimeout = errors.New("netcoord: i/o timeout")
	// ErrClosed reports a request against a closed Hub.
	ErrClosed = errors.New("netcoord: hub closed")
)

// DefaultIOTimeout bounds a single frame exchange (one write, one
// awaited response, or one frame body) when no explicit timeout is
// configured. Idle waits — an agent parked between training requests,
// an inference connection between PREDICT frames — are never bounded;
// only exchanges where the peer owes bytes are.
const DefaultIOTimeout = 2 * time.Minute

// normalizeTimeout maps the configuration convention (0 = default,
// negative = unbounded) onto the frameConn convention (0 = unbounded).
func normalizeTimeout(d time.Duration) time.Duration {
	switch {
	case d == 0:
		return DefaultIOTimeout
	case d < 0:
		return 0
	default:
		return d
	}
}

// RunConfig is what a connecting agent needs to reconstruct the
// coordinator's client population bit-for-bit: the dataset geometry
// (every field of data.Config is deterministic given its Seed) and
// whether to synthesize clients generatively. It travels as JSON in the
// WELCOME frame.
type RunConfig struct {
	Data data.Config `json:"data"`
	// Generative selects data.GenerateLazy over data.Generate. The two
	// are bit-identical; lazy synthesis keeps a million-client agent's
	// memory O(active).
	Generative bool `json:"generative,omitempty"`
	// Local mirrors the coordinator's training parameters for
	// observability; the authoritative per-attempt values travel in
	// each TRAIN frame.
	Local fl.LocalConfig `json:"local"`
	// IOTimeout bounds every frame exchange on both ends of the run: the
	// coordinator applies it to its connections, and agents adopt it
	// from the WELCOME frame. 0 means DefaultIOTimeout; negative disables
	// deadlines (tests).
	IOTimeout time.Duration `json:"ioTimeout,omitempty"`
}

// frameConn is one FTNC connection: buffered reads, a reusable write
// buffer (header + payload coalesced into one Write), and a reusable
// read buffer. Lock-stepped use only — the returned read payload
// aliases the read buffer until the next read.
type frameConn struct {
	c    net.Conn
	r    *bufio.Reader
	wbuf []byte
	rbuf []byte
	hdr  [4]byte // the length field being read; a local would escape per frame
	// timeout bounds every write, every awaited read, and the body of an
	// idle read once its header arrives. 0 leaves the connection
	// unbounded (tests only; production paths always set one).
	timeout time.Duration
	// limit is the longest frame (type + CRC + payload) a peer may
	// announce; readFrame refuses a longer one before allocating for
	// it. maxFrame unless the endpoint knows a tighter bound.
	limit uint32
}

func newFrameConn(c net.Conn) *frameConn {
	return newFrameConnTimeout(c, DefaultIOTimeout)
}

func newFrameConnTimeout(c net.Conn, timeout time.Duration) *frameConn {
	return &frameConn{c: c, r: bufio.NewReaderSize(c, 1<<16), timeout: timeout, limit: maxFrame}
}

func (fc *frameConn) write(t byte, payload []byte) error {
	n := 1 + 4 + len(payload)
	if n > maxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameSize, n)
	}
	if cap(fc.wbuf) < 4+n {
		fc.wbuf = make([]byte, 0, 4+n)
	}
	e := wire.Enc{B: fc.wbuf[:0]}
	e.U32(uint32(n))
	e.U8(t)
	e.U32(wire.Checksum(payload))
	e.Raw(payload)
	fc.wbuf = e.B
	if fc.timeout > 0 {
		fc.c.SetWriteDeadline(time.Now().Add(fc.timeout))
	}
	_, err := fc.c.Write(e.B)
	if err != nil && errors.Is(err, os.ErrDeadlineExceeded) {
		return fmt.Errorf("%w: write stalled for %v (frame type 0x%02x)", ErrIOTimeout, fc.timeout, t)
	}
	return err
}

// read returns the next frame, with the connection's full deadline over
// header and body — the form for every exchange where the peer owes a
// response (TRAINRES, WELCOME, PREDICTRES, an incoming HELLO). io.EOF
// is returned only for a clean close at a frame boundary; a connection
// lost mid-frame surfaces ErrTruncatedFrame, and one that stalls past
// the deadline ErrIOTimeout.
func (fc *frameConn) read() (byte, []byte, error) {
	return fc.readFrame(true)
}

// readIdle waits indefinitely for the next frame header — the form for
// server loops parked between requests (an agent awaiting the next
// TRAIN, an inference connection awaiting the next PREDICT), where
// silence is a legitimate state, not a stall. Once the header arrives
// the peer has started a frame and owes the rest, so the body read runs
// under the normal deadline.
func (fc *frameConn) readIdle() (byte, []byte, error) {
	return fc.readFrame(false)
}

func (fc *frameConn) readFrame(bounded bool) (byte, []byte, error) {
	if fc.timeout > 0 {
		if bounded {
			fc.c.SetReadDeadline(time.Now().Add(fc.timeout))
		} else {
			fc.c.SetReadDeadline(time.Time{})
		}
	}
	if _, err := io.ReadFull(fc.r, fc.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return 0, nil, fmt.Errorf("%w: no response within %v", ErrIOTimeout, fc.timeout)
		}
		return 0, nil, fmt.Errorf("%w: %v", ErrTruncatedFrame, err)
	}
	d := wire.NewDec(fc.hdr[:], &ftncErrs)
	n := d.U32()
	if n < 5 || n > fc.limit {
		return 0, nil, fmt.Errorf("%w: frame length %d", ErrFrameSize, n)
	}
	if fc.timeout > 0 && !bounded {
		fc.c.SetReadDeadline(time.Now().Add(fc.timeout))
	}
	buf, err := fc.readBody(int(n))
	if err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return 0, nil, fmt.Errorf("%w: %d-byte frame body stalled past %v", ErrIOTimeout, n, fc.timeout)
		}
		return 0, nil, fmt.Errorf("%w: %v", ErrTruncatedFrame, err)
	}
	d = wire.NewDec(buf, &ftncErrs)
	t, crc, payload := d.U8(), d.U32(), d.Rest()
	if wire.Checksum(payload) != crc {
		return 0, nil, fmt.Errorf("%w: frame type 0x%02x, %d bytes", ErrFrameCRC, t, len(payload))
	}
	return t, payload, nil
}

// readStep is the most readBody allocates ahead of the bytes that have
// arrived.
const readStep = 64 << 10

// readBody reads an n-byte frame body into the reusable read buffer. A
// buffer already large enough is filled in one read; otherwise it grows
// as the body arrives, by at most max(readStep, bytes read so far) at a
// time, so a peer that announces a long frame and sends nothing costs
// readStep, not the announced length, and an honest one about twice its
// body once.
func (fc *frameConn) readBody(n int) ([]byte, error) {
	buf := fc.rbuf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, len(buf)+max(len(buf), readStep)))
			copy(grown, buf)
			buf = grown
			fc.rbuf = grown
		}
		got, err := io.ReadFull(fc.r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+got]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func (fc *frameConn) close() error { return fc.c.Close() }
