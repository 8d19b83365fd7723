package netcoord

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"testing"
)

// TestReadFrameAllocatesAsBytesArrive: a peer that announces a maxFrame
// body and closes the connection costs the reader one growth step, not
// the 256 MiB it announced.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	local, peer := net.Pipe()
	defer local.Close()
	go func() {
		peer.Write([]byte{0x10, 0, 0, 0}) // maxFrame
		peer.Close()
	}()
	fc := newFrameConnTimeout(local, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := fc.read()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("read of an announced-then-abandoned frame: %v, want ErrTruncatedFrame", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("a maxFrame header with no body allocated %d bytes, want < 1 MiB", grew)
	}
}

// TestReadFrameGrowsAndReuses: a body longer than several growth steps
// arrives intact, and once the buffer has grown, frames up to its size
// are read with no allocation.
func TestReadFrameGrowsAndReuses(t *testing.T) {
	local, peer := net.Pipe()
	defer local.Close()
	defer peer.Close()
	payload := make([]byte, 5*readStep+123)
	rand.New(rand.NewSource(1)).Read(payload)
	const reps = 52
	go func() {
		out := newFrameConnTimeout(peer, 0)
		out.write(7, payload)
		for i := 0; i < reps; i++ {
			out.write(8, payload[:readStep+9])
		}
	}()
	in := newFrameConnTimeout(local, 0)
	typ, got, err := in.read()
	if err != nil || typ != 7 || !bytes.Equal(got, payload) {
		t.Fatalf("grown read: type %d, %d bytes, err %v; want type 7 and the %d bytes sent", typ, len(got), err, len(payload))
	}
	in.read()
	allocs := testing.AllocsPerRun(reps-2, func() {
		if typ, got, err := in.read(); err != nil || typ != 8 || len(got) != readStep+9 {
			t.Fatalf("steady read: type %d, %d bytes, err %v", typ, len(got), err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state frame read allocated %v times, want 0", allocs)
	}
}
