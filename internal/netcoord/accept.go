package netcoord

import (
	"errors"
	"net"
	"sync"
	"time"
)

// maxHandshakes caps the connections an endpoint handshakes at once. Each
// holds a goroutine and a 64 KiB reader until HELLO arrives or
// helloTimeout passes. With every slot taken the endpoint stops
// accepting, so later dials wait in the kernel's listen backlog and are
// admitted in arrival order as slots free; none is turned away.
const maxHandshakes = 64

// helloTimeout bounds the wait for a new connection's HELLO (the I/O
// timeout where that is shorter). A peer sends HELLO as soon as it
// connects, so a dial silent this long is no peer; dropping it frees its
// slot for the dials queued behind it.
const helloTimeout = 10 * time.Second

// probeEvery is how often an endpoint with every handshake slot taken
// checks whether its listener has been closed.
const probeEvery = 50 * time.Millisecond

// acceptor is the accept loop of both FTNC endpoints, the hub and the
// inference server. It takes a handshake slot before each Accept and
// reads the connection's HELLO on a goroutine of its own under the HELLO
// deadline. When the listener closes, it closes the handshakes still
// waiting for HELLO and waits for them to return.
type acceptor struct {
	ln      net.Listener
	timeout time.Duration // the endpoint's frame I/O timeout (0: none)
	slots   chan struct{}
	mu      sync.Mutex
	pending map[net.Conn]struct{} // waiting for HELLO; nil once shut down
	wg      sync.WaitGroup        // the handshakes
}

func newAcceptor(ln net.Listener, timeout time.Duration) *acceptor {
	return &acceptor{ln: ln, timeout: timeout, slots: make(chan struct{}, maxHandshakes), pending: make(map[net.Conn]struct{})}
}

// serve accepts until the listener fails and returns that error, or nil
// once the listener is closed. hello runs on each connection's own
// goroutine, still holding its slot, with the outcome of the HELLO read:
// it answers the handshake (and closes the connection on failure), and
// returns what serves the connection after that, which runs without the
// slot (nil: nothing).
func (a *acceptor) serve(hello func(fc *frameConn, err error) (serve func())) error {
	err := a.loop(hello)
	a.mu.Lock()
	for c := range a.pending {
		c.Close()
	}
	a.pending = nil
	a.mu.Unlock()
	a.wg.Wait()
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

func (a *acceptor) loop(hello func(*frameConn, error) func()) error {
	for {
		if err := a.take(); err != nil {
			return err
		}
		c, err := a.ln.Accept()
		if err != nil {
			return err
		}
		a.mu.Lock()
		a.pending[c] = struct{}{}
		a.wg.Add(1)
		a.mu.Unlock()
		go a.handshake(c, hello)
	}
}

// take claims a handshake slot. While every slot is taken it probes the
// listener every probeEvery with an accept deadline already past, which
// fails at once without taking a connection — with net.ErrClosed once
// the listener has been closed — so a Close is seen while the loop waits.
func (a *acceptor) take() error {
	for {
		select {
		case a.slots <- struct{}{}:
			return nil
		case <-time.After(probeEvery):
		}
		if d, ok := a.ln.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(time.Unix(1, 0))
			_, err := a.ln.Accept()
			d.SetDeadline(time.Time{})
			if errors.Is(err, net.ErrClosed) {
				return err
			}
		}
	}
}

func (a *acceptor) handshake(c net.Conn, hello func(*frameConn, error) func()) {
	deadline := helloTimeout
	if a.timeout > 0 {
		deadline = min(a.timeout, helloTimeout)
	}
	fc := newFrameConnTimeout(c, deadline)
	err := fc.readHello()
	fc.timeout = a.timeout
	a.mu.Lock()
	delete(a.pending, c)
	a.mu.Unlock()
	serve := hello(fc, err)
	<-a.slots
	a.wg.Done()
	if serve != nil {
		serve()
	}
}
