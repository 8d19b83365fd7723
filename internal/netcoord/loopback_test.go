package netcoord

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedtrans/internal/data"
	"fedtrans/internal/device"
	"fedtrans/internal/fl"
	"fedtrans/internal/model"
)

const loopClients = 12

func loopDataCfg() data.Config {
	return data.Config{Profile: "femnist", Clients: loopClients, Heterogeneity: 1, Seed: 5}
}

// loopRun executes one full FL run and returns its Result. In process
// when agentAddr is nil; otherwise through a loopback hub whose pool of
// three agent workers dials agentAddr(hub address), and then the hub's
// wire-fault count and the faults it retained come back too. Both paths
// build identical runtimes from a reset model-ID scope.
func loopRun(t *testing.T, mutate func(*fl.Config), agentAddr func(hub string) string) (fl.Result, int, []error) {
	t.Helper()
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
	if mutate != nil {
		mutate(&cfg)
	}
	if agentAddr == nil {
		return fl.New(cfg, ds, tr, spec).Run(), 0, nil
	}

	hub, err := NewHub("127.0.0.1:0", RunConfig{Data: dcfg, Local: cfg.Local})
	if err != nil {
		t.Fatal(err)
	}
	agentErr := make(chan error, 1)
	go func() {
		agentErr <- RunAgents(AgentConfig{Addr: agentAddr(hub.Addr()), Workers: 3})
	}()
	cfg.Trainer = hub
	done := make(chan fl.Result, 1)
	go func() { done <- fl.New(cfg, ds, tr, spec).Run() }()
	var res fl.Result
	select {
	case res = <-done:
	case <-time.After(time.Minute):
		hub.Close()
		t.Fatal("the networked run hung: the agent pool lost its workers")
	}
	count, wireErrs := hub.WireErrorCount(), hub.WireErrors()
	hub.Close()
	if err := <-agentErr; err != nil {
		t.Fatalf("agents exited with: %v", err)
	}
	return res, count, wireErrs
}

// faultRelay forwards FTNC connections from agents to the hub, frame by
// frame. It remembers the seed of each connection's outstanding TRAIN
// and, keyed on that seed, cuts the answering TRAINRES short, flips a
// bit in it, or drops the connection in its place — the transport
// faults a real network deals, reproducible because the seed is.
type faultRelay struct {
	ln     net.Listener
	target string
	wg     sync.WaitGroup
}

func newFaultRelay(t *testing.T, target string) *faultRelay {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &faultRelay{ln: ln, target: target}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			agent, err := ln.Accept()
			if err != nil {
				return
			}
			hub, err := net.Dial("tcp", target)
			if err != nil {
				agent.Close()
				continue
			}
			var seed atomic.Uint64
			r.wg.Add(2)
			go r.pipe(agent, hub, func(ft byte, p []byte) fault {
				if ft == ftTrain && len(p) >= 16 {
					seed.Store(binary.BigEndian.Uint64(p[8:16]))
				}
				return pass
			})
			go r.pipe(hub, agent, func(ft byte, p []byte) fault {
				if ft != ftTrainRes {
					return pass
				}
				switch u := rand.New(rand.NewSource(int64(seed.Load()) ^ 9)).Float64(); {
				case u < 0.12:
					return truncate
				case u < 0.24:
					return corrupt
				case u < 0.36:
					return drop
				}
				return pass
			})
		}
	}()
	return r
}

type fault int

const (
	pass fault = iota
	truncate
	corrupt
	drop
)

// pipe copies frames from src to dst, applying the fault judge draws for
// each, until either end closes; then it closes both.
func (r *faultRelay) pipe(dst, src net.Conn, judge func(ft byte, payload []byte) fault) {
	defer r.wg.Done()
	defer src.Close()
	defer dst.Close()
	in := bufio.NewReader(src)
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(in, hdr[:]); err != nil {
			return
		}
		frame := make([]byte, 4+binary.BigEndian.Uint32(hdr[:]))
		copy(frame, hdr[:])
		if _, err := io.ReadFull(in, frame[4:]); err != nil || len(frame) < 9 {
			return
		}
		switch judge(frame[4], frame[9:]) {
		case truncate:
			dst.Write(frame[:len(frame)/2])
			return
		case corrupt:
			frame[len(frame)-1] ^= 0x40
		case drop:
			return
		}
		if _, err := dst.Write(frame); err != nil {
			return
		}
	}
}

func (r *faultRelay) close() {
	r.ln.Close()
	r.wg.Wait()
}

// TestLoopbackWireFaults runs the networked coordinator behind a relay
// that truncates, corrupts and drops uploads. The coordinator surfaces
// each as its typed error, the agent redials the connection the hub
// dropped, and the retry machinery re-trains the attempt. The faults
// are keyed on the attempt's training seed, not on connection identity,
// so two faulted runs agree bit for bit, fault count included. A worker
// that read the hub's hang-up as the end of the run used to leave the
// pool empty and the coordinator waiting forever.
func TestLoopbackWireFaults(t *testing.T) {
	faulty := func(cfg *fl.Config) { cfg.RetryBudget = 3 }
	run := func() (fl.Result, int, []error) {
		var relay *faultRelay
		defer func() { relay.close() }()
		return loopRun(t, faulty, func(hub string) string {
			relay = newFaultRelay(t, hub)
			return relay.ln.Addr().String()
		})
	}

	resA, countA, errsA := run()
	if countA == 0 {
		t.Fatal("no wire faults recorded; the relay never fired")
	}
	for _, err := range errsA {
		if !errors.Is(err, ErrFrameCRC) && !errors.Is(err, ErrTruncatedFrame) && !errors.Is(err, ErrAgentGone) {
			t.Errorf("wire fault surfaced untyped: %v", err)
		}
	}
	resB, countB, _ := run()
	if !reflect.DeepEqual(resA, resB) {
		t.Fatal("identical wire-faulted runs diverged")
	}
	if countA != countB {
		t.Fatalf("fault schedules diverged: %d vs %d wire errors", countA, countB)
	}
}
