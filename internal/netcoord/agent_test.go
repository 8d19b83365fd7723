package netcoord

import (
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// TestLateWorkerAfterRunEnds: a short run can end, and the coordinator
// stop listening, before every worker of a pool has dialed once. Such a
// worker must take its siblings' word that the run is over instead of
// redialing for the whole budget and failing the pool; a pool the
// coordinator never answered still reports the refused dial.
func TestLateWorkerAfterRunEnds(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nobody listens here any more: dials are refused

	var served atomic.Bool
	served.Store(true)
	start := time.Now()
	if err := agentLoop(addr, dialBudget, nil, &served); err != nil {
		t.Errorf("late worker of a served pool: %v, want a clean exit", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("late worker kept redialing for %v", d)
	}

	served.Store(false)
	if err := agentLoop(addr, 100*time.Millisecond, nil, &served); err == nil {
		t.Error("a pool no coordinator ever answered must report the failed dial")
	}
}

// TestRunAgentsNeedsAWorker: a pool of no workers is an error, not a
// pool of one.
func TestRunAgentsNeedsAWorker(t *testing.T) {
	if err := RunAgents(AgentConfig{Addr: "127.0.0.1:1"}); err == nil {
		t.Error("RunAgents with no workers returned nil")
	}
}
