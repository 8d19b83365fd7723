package netcoord

import "fedtrans/internal/wire"

// The fixed part of each FTNC payload is a small struct with one walk,
// run by the end that writes it (over a wire.Enc on its buffer) and the
// end that reads it (over a wire.Dec on the payload); the field table is
// in the package comment, byte order and bounds are internal/wire's.
// What follows a header — a JSON body, a model blob, FTW1 weights,
// float32 features, an error message — is the rest of the payload. A
// payload too short for its header is ErrProtocol. The walks are called
// directly, not through a func value, so the coders stay on the stack:
// a frame's header costs no allocation at either end.

var ftncErrs = wire.Errs{Truncated: ErrProtocol, Corrupt: ErrProtocol}

// helloHdr is the whole HELLO payload.
type helloHdr struct {
	magic   [4]byte
	version uint16
}

func (h *helloHdr) walk(c wire.Coder) {
	c.Raw(h.magic[:])
	c.U16(&h.version)
}

// helloFrame is the length of a HELLO frame (type, CRC, magic,
// version): the most a peer may announce before it has said who it is.
const helloFrame = 5 + len(helloMagic) + 2

// sendHello opens a connection from the dialing side.
func (fc *frameConn) sendHello() error {
	h := helloHdr{magic: [4]byte([]byte(helloMagic)), version: ProtoVersion}
	var e wire.Enc
	h.walk(wire.Encoding(&e))
	return fc.write(ftHello, e.B)
}

// readHello is the handshake gate of every accepting side: the first
// frame must be a well-formed HELLO of this protocol version, and until
// it has arrived the peer may announce nothing longer (a stranger's
// length header allocates nothing). The bound stays in place: the
// caller raises it to what its protocol reads next.
func (fc *frameConn) readHello() error {
	fc.limit = uint32(helloFrame)
	t, payload, err := fc.read()
	if err != nil {
		return err
	}
	var h helloHdr
	d := wire.NewDec(payload, &ftncErrs)
	h.walk(wire.Decoding(&d))
	if d.Done() != nil || t != ftHello || string(h.magic[:]) != helloMagic || h.version != ProtoVersion {
		return ErrBadHandshake
	}
	return nil
}

// errPayload is a status-1 TRAINRES or PREDICTRES: the status byte and
// then the message.
func errPayload(dst []byte, msg string) []byte { return append(append(dst, 1), msg...) }

// welcomeHdr opens both WELCOME payloads: a training coordinator's
// RunConfig JSON follows the version, an inference endpoint's dim.
type welcomeHdr struct {
	version uint16
	dim     uint32 // inference only
}

func (h *welcomeHdr) walk(c wire.Coder)      { c.U16(&h.version) }
func (h *welcomeHdr) walkInfer(c wire.Coder) { h.walk(c); c.U32(&h.dim) }

// modelHdr precedes the model blob of a MODEL frame.
type modelHdr struct{ model uint32 }

func (h *modelHdr) walk(c wire.Coder) { c.U32(&h.model) }

// trainHdr precedes the FTW1 weights of a TRAIN frame.
type trainHdr struct {
	model, client uint32
	seed          uint64
	flags         uint8 // reserved, must be 0
	steps, batch  uint32
	lr, proxMu    float64
}

func (h *trainHdr) walk(c wire.Coder) {
	c.U32(&h.model)
	c.U32(&h.client)
	c.U64(&h.seed)
	c.U8(&h.flags)
	c.U32(&h.steps)
	c.U32(&h.batch)
	c.F64(&h.lr)
	c.F64(&h.proxMu)
}

// trainResHdr opens a TRAINRES frame: after a non-zero status comes an
// error message, after status 0 the result fields and FTW1 weights.
type trainResHdr struct {
	status  uint8
	loss    float64
	samples uint32
	kind    uint8 // 0: dense FTW1, the only kind
}

// trainResHdrLen is the encoded length of a status-0 trainResHdr.
const trainResHdrLen = 1 + 8 + 4 + 1

func (h *trainResHdr) walk(c wire.Coder) {
	if c.U8(&h.status); h.status != 0 {
		return
	}
	c.F64(&h.loss)
	c.U32(&h.samples)
	c.U8(&h.kind)
}

// predictHdr precedes the rows·dim float32 features of a PREDICT frame.
type predictHdr struct{ rows, dim uint32 }

func (h *predictHdr) walk(c wire.Coder) {
	c.U32(&h.rows)
	c.U32(&h.dim)
}

// predictRes is a whole PREDICTRES payload with status 0: the classes
// as a u32-counted list of u32. (After a non-zero status comes an error
// message instead.)
type predictRes struct {
	status  uint8
	classes []int
}

func (r *predictRes) walk(c wire.Coder) {
	if c.U8(&r.status); r.status != 0 {
		return
	}
	wire.Slice(c, &r.classes, 4, func(p *int) {
		u := uint32(*p)
		c.U32(&u)
		*p = int(u)
	})
}
