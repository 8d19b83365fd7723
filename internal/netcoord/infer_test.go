package netcoord

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// argmaxServer serves dim-4 rows over loopback through the PredictFunc
// adapter: the class of a row is the index of its largest feature.
func argmaxServer(t *testing.T) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		served <- ServeInference(ln, 4, func(rows [][]float64) ([]int, error) {
			out := make([]int, len(rows))
			for i, r := range rows {
				for j, v := range r {
					if v > r[out[i]] {
						out[i] = j
					}
				}
			}
			return out, nil
		})
	}()
	t.Cleanup(func() {
		ln.Close()
		if err := <-served; err != nil {
			t.Errorf("ServeInference: %v", err)
		}
	})
	return ln.Addr().String()
}

// serveOne serves one connection the way ServeInferenceRows serves each
// connection it accepts.
func serveOne(c net.Conn, dim int, predict RowsFunc, timeout time.Duration) {
	a := newAcceptor(nil, timeout)
	a.slots <- struct{}{}
	a.wg.Add(1)
	a.handshake(c, inferHello(dim, func() RowsFunc { return predict }))
}

// TestOversizedFrameBeforeHelloAllocatesNothing: a peer that has not
// said HELLO may announce at most a HELLO-sized frame. A 200 MiB header
// is refused from the 4 header bytes alone — the connection is dropped
// and nothing beyond the connection's 64 KiB read buffer is allocated.
func TestOversizedFrameBeforeHelloAllocatesNothing(t *testing.T) {
	server, peer := net.Pipe()
	defer peer.Close()
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 200<<20)
		peer.Write(hdr[:])
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	serveOne(server, 4, func([]byte, []int) error {
		t.Error("predict reached without a handshake")
		return nil
	}, time.Second)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 128<<10 {
		t.Errorf("a 200 MiB frame header before HELLO allocated %d bytes, want <= 64 KiB buffer + bookkeeping", grew)
	}
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := peer.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("peer read after the oversized header: %v, want EOF (connection dropped)", err)
	}
}

// TestPredictFrameLimit: past the handshake the bound is
// maxPredictRows rows. A frame at the bound is answered; one row more
// is refused by the client up front, and a raw peer that announces it
// anyway is dropped without its body being read.
func TestPredictFrameLimit(t *testing.T) {
	addr := argmaxServer(t)
	cl, err := DialInference(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rows := make([][]float64, maxPredictRows+1)
	for i := range rows {
		rows[i] = make([]float64, 4)
		rows[i][i%4] = 1
	}
	got, err := cl.PredictBatch(rows[:maxPredictRows])
	if err != nil {
		t.Fatalf("%d-row frame: %v", maxPredictRows, err)
	}
	for i, class := range got {
		if class != i%4 {
			t.Fatalf("row %d: class %d, want %d", i, class, i%4)
		}
	}
	if _, err := cl.PredictBatch(rows); err == nil || !strings.Contains(err.Error(), "rows") {
		t.Fatalf("%d-row frame: err %v, want the client to refuse it", len(rows), err)
	}
	if got, err := cl.Predict(rows[2]); err != nil || got != 2 {
		t.Fatalf("connection unusable after a refused batch: class %d, err %v", got, err)
	}

	fc := handshakeAsAgent(t, addr) // the inference endpoint opens with the same HELLO/WELCOME
	defer fc.close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(13+(maxPredictRows+1)*4*4))
	if _, err := fc.c.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	fc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := fc.c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after an over-limit PREDICT header: %v, want EOF (connection dropped)", err)
	}
}

// TestPredictFuncClassCountChecked: the adapter turns a PredictFunc
// that answers with the wrong number of classes into an error frame
// instead of a malformed PREDICTRES.
func TestPredictFuncClassCountChecked(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go ServeInference(ln, 4, func(rows [][]float64) ([]int, error) { return make([]int, len(rows)+1), nil })
	cl, err := DialInference(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Predict(make([]float64, 4)); err == nil || !strings.Contains(err.Error(), "2 classes for 1 rows") {
		t.Fatalf("miscounting PredictFunc: err %v", err)
	}
}

// TestPredictRowsBoundedAtDimZero: a model with a zero-width input gives
// every row zero bytes, so the frame limit alone would let a 13-byte
// PREDICT claim 2³²−1 rows and size the class list from that. The row
// bound holds regardless: the frame is answered with an error.
func TestPredictRowsBoundedAtDimZero(t *testing.T) {
	server, peer := net.Pipe()
	defer peer.Close()
	go serveOne(server, 0, func([]byte, []int) error {
		t.Error("predict reached with an impossible row count")
		return nil
	}, 5*time.Second)
	fc := newFrameConnTimeout(peer, 5*time.Second)
	if err := fc.sendHello(); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := fc.read(); err != nil || ft != ftWelcome {
		t.Fatalf("WELCOME: frame 0x%02x, err %v", ft, err)
	}
	if err := fc.write(ftPredict, []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if ft, p, err := fc.read(); err != nil || ft != ftPredictRes || len(p) < 2 || p[0] != 1 {
		t.Fatalf("PREDICTRES: frame 0x%02x % x, err %v; want status 1 and a message", ft, p, err)
	}
}

// inferServer serves dim-4 rows on a fresh loopback listener with the
// given frame timeout, answering class 0. stop closes the listener and
// returns how long ServeInferenceRows took to return.
func inferServer(t *testing.T, timeout time.Duration) (addr string, stop func() time.Duration) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() {
		served <- ServeInferenceRows(ln, 4, func() RowsFunc {
			return func(_ []byte, classes []int) error { clear(classes); return nil }
		}, timeout)
	}()
	return ln.Addr().String(), func() time.Duration {
		start := time.Now()
		ln.Close()
		if err := <-served; err != nil {
			t.Errorf("ServeInferenceRows: %v", err)
		}
		return time.Since(start)
	}
}

// dialSilent opens n connections to addr that never send a byte.
func dialSilent(t *testing.T, addr string, n int) []net.Conn {
	t.Helper()
	conns := make([]net.Conn, n)
	for i := range conns {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		conns[i] = c
	}
	return conns
}

// TestServeInferenceBoundsHandshakes: the inference endpoint accepts the
// way the hub does. Dials that never send HELLO hold at most
// maxHandshakes handshakes however many arrive; a client dialing behind
// them is answered once their HELLO deadline frees slots; and closing the
// listener closes the handshakes still waiting, so a silent dial sees its
// connection end at once rather than at its deadline.
func TestServeInferenceBoundsHandshakes(t *testing.T) {
	const dials = 200
	t.Run("bounded, closed with the listener", func(t *testing.T) {
		before := runtime.NumGoroutine()
		addr, stop := inferServer(t, 0) // HELLO deadline: helloTimeout
		silent := dialSilent(t, addr, dials)
		held := 0
		for deadline := time.Now().Add(5 * time.Second); held < maxHandshakes && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
			held = runtime.NumGoroutine() - before
		}
		time.Sleep(50 * time.Millisecond)
		// The serving loop itself, plus at most one goroutine a handshake.
		if held = runtime.NumGoroutine() - before; held > maxHandshakes+1 {
			t.Errorf("%d silent dials hold %d goroutines, want at most %d handshakes", dials, held, maxHandshakes)
		}
		if took := stop(); took > time.Second {
			t.Errorf("ServeInferenceRows took %v to return after its listener closed", took)
		}
		for i, c := range silent {
			c.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("silent dial %d still open after its listener closed (read: %v)", i, err)
			}
		}
	})
	t.Run("a client behind silent dials is answered", func(t *testing.T) {
		addr, stop := inferServer(t, 100*time.Millisecond) // HELLO deadline: 100 ms
		defer stop()
		dialSilent(t, addr, dials)
		cl, err := dialInference(addr, 10*time.Second)
		if err != nil {
			t.Fatalf("dial behind %d silent dials: %v", dials, err)
		}
		defer cl.Close()
		if class, err := cl.Predict(make([]float64, 4)); err != nil || class != 0 {
			t.Fatalf("predict behind %d silent dials: class %d, err %v", dials, class, err)
		}
	})
}
