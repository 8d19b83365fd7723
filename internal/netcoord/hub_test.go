package netcoord

import (
	"errors"
	"fmt"
	"sync"
	"testing"
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
