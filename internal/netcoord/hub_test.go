package netcoord

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"fedtrans/internal/codec"
	"fedtrans/internal/data"
	"fedtrans/internal/fl"
	"fedtrans/internal/model"
)

// TestWireErrorsBounded: a flapping agent must not grow the hub's fault
// list without bound — the first maxWireErrs faults are retained, in
// order, and every fault is counted.
func TestWireErrorsBounded(t *testing.T) {
	const faults, workers = 10_000, 3 // one fault up front, 3333 per worker
	h := &Hub{}
	h.recordErr(fmt.Errorf("first: %w", ErrIOTimeout))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < (faults-1)/workers; i++ {
				h.recordErr(ErrBadHandshake)
			}
		}()
	}
	wg.Wait()
	errs := h.WireErrors()
	if len(errs) != maxWireErrs {
		t.Errorf("retained %d faults, want %d", len(errs), maxWireErrs)
	}
	if !errors.Is(errs[0], ErrIOTimeout) {
		t.Errorf("first fault not retained first: %v", errs[0])
	}
	if got := h.WireErrorCount(); got != faults {
		t.Errorf("counted %d faults, want %d", got, faults)
	}
}

// TestHubOversizedFrameBeforeHelloAllocatesNothing is the hub's twin of
// TestOversizedFrameBeforeHelloAllocatesNothing: a stranger that opens
// with a 256 MiB length header is refused from the 4 header bytes alone
// — one bad handshake on the books, the connection dropped, and nothing
// beyond the connection's 64 KiB read buffer allocated.
func TestHubOversizedFrameBeforeHelloAllocatesNothing(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0", RunConfig{Data: loopDataCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	peer, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	peer.Write([]byte{0x10, 0, 0, 0}) // maxFrame: what the hub read up to before it knew its peer
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := peer.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("peer read after the oversized header: %v, want EOF (connection dropped)", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<10 {
		t.Errorf("a 256 MiB frame header before HELLO allocated %d bytes, want the 64 KiB buffer + bookkeeping", grew)
	}
	if errs := hub.WireErrors(); len(errs) != 1 || !errors.Is(errs[0], ErrBadHandshake) {
		t.Errorf("hub recorded %v, want one ErrBadHandshake", errs)
	}
}

// TestHubBoundsTrainRes: once a TRAIN is out, the hub is owed a
// TRAINRES no longer than the upload it asked for (or 4 KiB, room for an
// error message). An agent announcing one byte more costs the hub one
// ErrFrameSize, refused on the header, and its connection; the retried
// attempt is served by another agent.
func TestHubBoundsTrainRes(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0", RunConfig{Data: loopDataCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	ds := data.Generate(loopDataCfg())
	m := model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes).Build(rand.New(rand.NewSource(1)))
	upload := uploadLike(m)

	fake := handshakeAsAgent(t, hub.Addr())
	defer fake.close()
	fakeDone := make(chan struct{})
	go func() {
		defer close(fakeDone)
		for {
			ft, _, err := fake.readIdle()
			if err != nil {
				return // dropped by the hub
			}
			if ft == ftTrain {
				owed := max(5+trainResHdrLen+codec.EncodedSize(upload), 4<<10)
				fake.write(ftTrainRes, make([]byte, owed-5+1))
			}
		}
	}()

	spec, local := fl.TrainSpec{Round: 1, Client: 0, Seed: 7}, fl.LocalConfig{Steps: 1, BatchSize: 2, LR: 0.05}
	if _, _, err := hub.Train(m, spec, local, upload); !errors.Is(err, ErrFrameSize) {
		t.Fatalf("over-long TRAINRES surfaced %v, want ErrFrameSize", err)
	}
	if n := hub.WireErrorCount(); n != 1 {
		t.Errorf("hub counted %d wire faults, want 1", n)
	}
	<-fakeDone

	agents := make(chan error, 1)
	go func() { agents <- RunAgents(AgentConfig{Addr: hub.Addr(), Workers: 1}) }()
	spec.Attempt = 1
	if _, samples, err := hub.Train(m, spec, local, upload); err != nil || samples == 0 {
		t.Fatalf("retry through a real agent: samples %d, err %v", samples, err)
	}
	hub.Close()
	if err := <-agents; err != nil {
		t.Errorf("agents exited with: %v", err)
	}
}

// silentDials opens n connections to addr that never send HELLO and
// waits until the hub is handshaking all it will: n, or maxHandshakes.
func silentDials(t *testing.T, hub *Hub, n int) []net.Conn {
	t.Helper()
	conns := make([]net.Conn, n)
	for i := range conns {
		c, err := net.Dial("tcp", hub.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		conns[i] = c
	}
	for deadline := time.Now().Add(5 * time.Second); hub.handshakes() < min(n, maxHandshakes); {
		if time.Now().After(deadline) {
			t.Fatalf("hub took up %d handshakes of %d silent dials", hub.handshakes(), n)
		}
		time.Sleep(time.Millisecond)
	}
	return conns
}

func (h *Hub) handshakes() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pending)
}

// TestHubBoundsHandshakes: a connection that never sends HELLO holds a
// handshake — a goroutine and a 64 KiB reader — until helloTimeout. The
// hub runs at most maxHandshakes at once and leaves later dials waiting
// in the listen backlog; Close closes every one of them and returns
// after the handshake goroutines have exited.
func TestHubBoundsHandshakes(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0", RunConfig{Data: loopDataCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	silent := silentDials(t, hub, maxHandshakes+8)
	time.Sleep(50 * time.Millisecond)
	if n := hub.handshakes(); n != maxHandshakes {
		t.Fatalf("%d handshakes under way, want the cap of %d", n, maxHandshakes)
	}
	before := runtime.NumGoroutine()
	hub.Close()
	if after := runtime.NumGoroutine(); before-after < maxHandshakes {
		t.Errorf("Close left %d of the %d handshake goroutines running", maxHandshakes-(before-after), maxHandshakes)
	}
	for i, c := range silent {
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("silent dial %d still open after Close (read: %v)", i, err)
		}
	}
	if n := hub.WireErrorCount(); n != 0 {
		t.Errorf("Close counted %d handshakes it cut short as wire faults", n)
	}
}

// TestHubAdmitsAgentPastSilentDials: dials that fill every handshake
// slot and never send HELLO must not lock agents out. An agent dialing
// behind them waits in the listen backlog until their HELLO deadline
// frees a slot, then is welcomed and trains; it never reads the wait as
// the coordinator having gone.
func TestHubAdmitsAgentPastSilentDials(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0", RunConfig{Data: loopDataCfg(), IOTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	silentDials(t, hub, maxHandshakes)
	ds := data.Generate(loopDataCfg())
	m := model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes).Build(rand.New(rand.NewSource(1)))
	upload := uploadLike(m)

	agents := make(chan error, 1)
	go func() { agents <- RunAgents(AgentConfig{Addr: hub.Addr(), Workers: 1}) }()
	trained := make(chan error, 1)
	go func() {
		_, samples, err := hub.Train(m, fl.TrainSpec{Round: 1, Client: 0, Seed: 7}, fl.LocalConfig{Steps: 1, BatchSize: 2, LR: 0.05}, upload)
		if err == nil && samples == 0 {
			err = errors.New("no samples trained")
		}
		trained <- err
	}()
	select {
	case err := <-trained:
		if err != nil {
			t.Fatalf("attempt behind %d silent dials: %v", maxHandshakes, err)
		}
	case err := <-agents:
		hub.Close()
		t.Fatalf("agent exited before it was served (err %v)", err)
	case <-time.After(30 * time.Second):
		t.Fatal("no agent admitted behind the silent dials")
	}
	hub.Close()
	if err := <-agents; err != nil {
		t.Errorf("agents exited with: %v", err)
	}
}
