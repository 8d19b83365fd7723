package netcoord

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/fl"
	"fedtrans/internal/model"
)

// stallTimeout is the frame deadline the stalled-peer tests run at:
// long enough that healthy exchanges (handshakes, small frames over
// loopback) never trip it, short enough to keep the tests fast.
const stallTimeout = 200 * time.Millisecond

// handshakeAsAgent dials the hub and completes the FTNC handshake, then
// returns the connection without ever serving a request — the shape of
// a peer that stalls after admission.
func handshakeAsAgent(t *testing.T, addr string) *frameConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	fc := newFrameConn(c)
	hello := append([]byte(helloMagic), 0, 0)
	binary.BigEndian.PutUint16(hello[4:], ProtoVersion)
	if err := fc.write(ftHello, hello); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := fc.read(); err != nil || ft != ftWelcome {
		t.Fatalf("handshake: frame 0x%02x, err %v", ft, err)
	}
	return fc
}

// TestStalledAgentTimesOut pins the satellite bugfix: an agent that
// completes the handshake and then goes silent mid-attempt must cost
// the hub one typed ErrIOTimeout after the configured deadline — not an
// accept goroutine and a training slot hung forever.
func TestStalledAgentTimesOut(t *testing.T) {
	hub, err := NewHub("127.0.0.1:0", RunConfig{Data: loopDataCfg(), IOTimeout: stallTimeout})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	fc := handshakeAsAgent(t, hub.Addr())
	defer fc.close()
	// Drain the hub's MODEL/TRAIN frames so its writes land; never send
	// TRAINRES.
	go func() {
		for {
			if _, _, err := fc.readIdle(); err != nil {
				return
			}
		}
	}()

	model.ResetIDs()
	ds := data.Generate(loopDataCfg())
	m := model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes).Build(rand.New(rand.NewSource(1)))
	upload := uploadLike(m)
	start := time.Now()
	_, _, err = hub.Train(m, fl.TrainSpec{Round: 1, Client: 0, Seed: 7}, fl.LocalConfig{Steps: 1, BatchSize: 2, LR: 0.05}, upload)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrIOTimeout) {
		t.Fatalf("stalled agent surfaced %v, want ErrIOTimeout", err)
	}
	if elapsed < stallTimeout/2 || elapsed > 20*stallTimeout {
		t.Errorf("timed out after %v with a %v deadline", elapsed, stallTimeout)
	}
	errs := hub.WireErrors()
	if len(errs) == 0 || !errors.Is(errs[len(errs)-1], ErrIOTimeout) {
		t.Errorf("hub did not record the timeout: %v", errs)
	}
}

// TestStalledPredictClientDropped: a client that starts a PREDICT frame
// and never finishes it must be disconnected after the serve deadline
// instead of pinning its serving goroutine (and connection) forever.
func TestStalledPredictClientDropped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go ServeInferenceRows(ln, 4, func() RowsFunc {
		return widenRows(4, func(rows [][]float64) ([]int, error) { return make([]int, len(rows)), nil })
	}, stallTimeout)

	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fc := newFrameConn(c)
	hello := append([]byte(helloMagic), 0, 0)
	binary.BigEndian.PutUint16(hello[4:], ProtoVersion)
	if err := fc.write(ftHello, hello); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := fc.read(); err != nil || ft != ftWelcome {
		t.Fatalf("handshake: frame 0x%02x, err %v", ft, err)
	}
	// A frame header promising 64 bytes, then silence.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 64)
	if _, err := c.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(20 * stallTimeout))
	start := time.Now()
	var one [1]byte
	if _, err := c.Read(one[:]); err == nil {
		t.Fatal("server answered a half-sent frame")
	} else if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		t.Fatalf("server still holding the stalled connection after %v", time.Since(start))
	}
}

// TestStalledInferenceServerTimesOut: an inference client whose server
// accepts the PREDICT frame but never answers gets a typed ErrIOTimeout
// instead of blocking its caller forever.
func TestStalledInferenceServerTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		fc := newFrameConn(c)
		if ft, _, err := fc.read(); err != nil || ft != ftHello {
			return
		}
		welcome := make([]byte, 6)
		binary.BigEndian.PutUint16(welcome, ProtoVersion)
		binary.BigEndian.PutUint32(welcome[2:], 4)
		fc.write(ftWelcome, welcome)
		// Swallow the PREDICT frame; never respond.
		fc.readIdle()
		select {}
	}()

	cl, err := dialInference(ln.Addr().String(), stallTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	_, err = cl.Predict([]float64{1, 2, 3, 4})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrIOTimeout) {
		t.Fatalf("stalled server surfaced %v, want ErrIOTimeout", err)
	}
	if elapsed > 20*stallTimeout {
		t.Errorf("timed out after %v with a %v deadline", elapsed, stallTimeout)
	}
}

// TestHealthyRunUnaffectedByDeadlines re-runs the golden loopback
// equivalence with an aggressively small frame deadline: deadlines only
// bound single frame exchanges, so a healthy run must still be
// byte-identical to the in-process run.
func TestHealthyRunUnaffectedByDeadlines(t *testing.T) {
	want, _, _ := loopRun(t, nil, nil)
	model.ResetIDs()
	dcfg := loopDataCfg()
	ds := data.Generate(dcfg)
	spec := model.NASBenchLikeSpec(ds.FeatureDim, ds.Classes)
	base := spec.Build(rand.New(rand.NewSource(0))).MACsPerSample()
	tr := device.NewTrace(device.TraceConfig{
		N: loopClients, MinCapacityMACs: base, MaxCapacityMACs: base * 32, Seed: 101,
	})
	cfg := fl.DefaultConfig()
	cfg.Rounds = 3
	cfg.ClientsPerRound = 6
	cfg.Local.Steps = 2
	hub, err := NewHub("127.0.0.1:0", RunConfig{Data: dcfg, Local: cfg.Local, IOTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	agentErr := make(chan error, 1)
	go func() {
		agentErr <- RunAgents(AgentConfig{Addr: hub.Addr(), Workers: 3})
	}()
	cfg.Trainer = hub
	got := fl.New(cfg, ds, tr, spec).Run()
	if errs := hub.WireErrors(); len(errs) != 0 {
		t.Fatalf("healthy bounded run recorded wire errors: %v", errs)
	}
	hub.Close()
	if err := <-agentErr; err != nil {
		t.Fatalf("agents exited with: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("deadline-bounded networked run diverged from in-process run")
	}
}
