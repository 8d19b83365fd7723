// Package par provides the bounded, deterministic worker pools used by
// the FL runtime (per-client evaluation, local training) and the
// experiment drivers (grid cells, sweeps). Parallel width is keyed off
// GOMAXPROCS; every task writes only to task-indexed state, so results
// are identical to a serial execution regardless of scheduling.
//
// Extra workers are drawn from one process-wide token budget, and the
// calling goroutine always participates, so nested fan-outs (a parallel
// grid cell whose runtime parallelizes local training) share a single
// concurrency budget instead of multiplying — and can never deadlock:
// when no tokens are available the work simply runs inline.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// tokens bounds the number of extra worker goroutines alive across all
// concurrent ForN/Chunked calls in the process.
var tokens = make(chan struct{}, runtime.GOMAXPROCS(0))

// Limit returns the parallel width for n independent tasks: GOMAXPROCS
// capped at n (minimum 1).
func Limit(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForN runs fn(i) for every i in [0, n) and returns when all calls have
// completed. Indices are claimed from a shared atomic counter, so long
// tasks do not serialize behind short ones. Up to Limit(n)-1 extra
// workers are spawned if the process-wide budget allows; the calling
// goroutine always works too. fn must confine its writes to
// index-owned state.
func ForN(n int, fn func(i int)) {
	w := Limit(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var idx atomic.Int64
	work := func() {
		for {
			i := int(idx.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < w-1; g++ {
		select {
		case tokens <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-tokens
					wg.Done()
				}()
				work()
			}()
		default:
			g = w // budget exhausted; remaining work runs inline
		}
	}
	work()
	wg.Wait()
}

// StreamErr is the bounded producer/consumer pipeline behind the
// streaming round loop: produce(i) runs for every i in [0, n) across the
// worker pool (the same process-wide token budget as ForN), while
// consume(i) is called exactly once per index, in strictly ascending
// index order, on the calling goroutine, overlapping with production. At
// most window results are outstanding — claimed for production but not
// yet consumed — at any moment, so peak memory for per-item results is
// O(window) instead of O(n): a producer that runs ahead of the
// consumption frontier blocks until the frontier catches up.
//
// Because consume runs single-threaded in index order, it may use shared
// state (an RNG, accumulators) without synchronization and the overall
// result is byte-identical to the serial loop
//
//	for i := 0; i < n; i++ { produce(i); consume(i) }
//
// which is exactly what StreamErr degrades to at GOMAXPROCS=1 or when
// the token budget is exhausted. produce must confine its writes to
// index-owned state; consume(i) happens-after produce(i).
//
// When consume returns a non-nil error, no further indices are claimed
// for production or consumed, outstanding producers are drained (every
// produce already started runs to completion — no goroutine is leaked
// and no index-owned state is left half-written), and the error is
// returned. Indices after the failed one may never be produced at all;
// callers owning per-index resources must tolerate both
// produced-but-unconsumed and never-produced indices after an abort.
func StreamErr(n, window int, produce func(i int), consume func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if window < 1 {
		window = 1
	}
	w := Limit(n)
	// At most window items are ever claimable at once, so workers beyond
	// that would only park on the condvar while pinning process-wide pool
	// tokens — cap the crew (caller included) at the window.
	if w > window {
		w = window
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			produce(i)
			if err := consume(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		next     int // next index to claim for production
		frontier int // next index to consume
		aborted  bool
		done     = make([]bool, n)
	)
	claim := func() (int, bool) {
		// Caller holds mu. Claims the next index if the window allows.
		if !aborted && next < n && next < frontier+window {
			i := next
			next++
			return i, true
		}
		return 0, false
	}
	finish := func(i int) {
		mu.Lock()
		done[i] = true
		cond.Broadcast()
		mu.Unlock()
	}
	worker := func() {
		for {
			mu.Lock()
			for !aborted && next < n && next >= frontier+window {
				cond.Wait()
			}
			i, ok := claim()
			mu.Unlock()
			if !ok {
				return // all indices claimed, or the stream aborted
			}
			produce(i)
			finish(i)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < w-1; g++ {
		select {
		case tokens <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-tokens
					wg.Done()
				}()
				worker()
			}()
		default:
			g = w // budget exhausted; the caller alone produces the rest
		}
	}
	// The calling goroutine drains the completion stream in index order,
	// producing itself whenever the frontier item is not ready and the
	// window still has room.
	var err error
	for frontier < n {
		mu.Lock()
		if done[frontier] {
			i := frontier
			mu.Unlock()
			cerr := consume(i)
			mu.Lock()
			frontier++
			if cerr != nil {
				err = cerr
				aborted = true
			}
			cond.Broadcast()
			mu.Unlock()
			if cerr != nil {
				break
			}
			continue
		}
		if i, ok := claim(); ok {
			mu.Unlock()
			produce(i)
			finish(i)
			continue
		}
		for !done[frontier] && !(next < n && next < frontier+window) {
			cond.Wait()
		}
		mu.Unlock()
	}
	mu.Lock()
	cond.Broadcast() // frontier == n or aborted: release waiting workers
	mu.Unlock()
	wg.Wait()
	return err
}

// Task states in a TaskStream.
const (
	taskQueued  = iota // submitted, claimable by a worker or by Wait
	taskRunning        // some goroutine is executing fn
	taskDone           // fn returned
)

// Task is one submitted unit of work in a TaskStream. The zero value is
// not useful; obtain Tasks from TaskStream.Go.
type Task struct {
	fn    func()
	state int
}

// TaskStream generalizes StreamErr's completion stream to
// dynamically submitted tasks whose consumption order — and epoch — the
// consumer chooses: where StreamErr claims a fixed index range and
// consumes it in ascending order within one epoch, a TaskStream lets the
// single consumer release producers into later epochs before earlier
// epochs' items commit (the staleness-bounded asynchronous round loop
// schedules over it; the staleness bound itself is the scheduler's
// commit policy, enforced by which tasks it chooses to Wait on each
// epoch). StreamErr remains the synchronous special case — its window
// semantics and results are untouched.
//
// Producers run on the shared process-wide token budget, capped at
// limit background workers. Wait(t) is the consumption point: a task no
// worker has claimed runs inline on the caller — so with no spare
// tokens or GOMAXPROCS=1 the stream degrades to a serial loop executing
// tasks in Wait order — and a task mid-execution is awaited. Because a
// task's fn must confine its writes to task-owned state, results are
// byte-identical regardless of which goroutine ran which task.
//
// Go and Wait must be called from a single consumer goroutine.
type TaskStream struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*Task // submitted, not yet claimed
	workers int     // live background workers
	limit   int
}

// NewTaskStream returns a stream running at most limit background
// producers (additionally bounded by live GOMAXPROCS and the shared
// token budget; limit < 1 means every task runs inline at Wait).
func NewTaskStream(limit int) *TaskStream {
	s := &TaskStream{limit: limit}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Go submits fn for execution and returns its Task handle. fn may begin
// on a background worker immediately or run inline later at Wait; it
// must confine its writes to task-owned state.
func (s *TaskStream) Go(fn func()) *Task {
	t := &Task{fn: fn}
	s.mu.Lock()
	s.queue = append(s.queue, t)
	spawn := false
	// Mirror ForN/StreamErr's degradation: background workers only while
	// the live GOMAXPROCS leaves room for the consumer, within the
	// stream's own cap, and within the process-wide budget.
	if s.workers < s.limit && s.workers < runtime.GOMAXPROCS(0)-1 {
		select {
		case tokens <- struct{}{}:
			s.workers++
			spawn = true
		default:
		}
	}
	s.mu.Unlock()
	if spawn {
		go s.worker()
	}
	return t
}

func (s *TaskStream) worker() {
	s.mu.Lock()
	for len(s.queue) > 0 {
		t := s.queue[0]
		s.queue = s.queue[1:]
		t.state = taskRunning
		s.mu.Unlock()
		t.fn()
		s.mu.Lock()
		t.state = taskDone
		s.cond.Broadcast()
	}
	s.workers--
	s.mu.Unlock()
	<-tokens
}

// Wait ensures t's fn has run and returns: a still-queued task is
// claimed and run inline on the caller, a running task is awaited, a
// finished task returns immediately. After Wait returns, all of fn's
// writes are visible to the caller. Waiting the same task again is a
// no-op.
func (s *TaskStream) Wait(t *Task) {
	s.mu.Lock()
	switch t.state {
	case taskQueued:
		for i, q := range s.queue {
			if q == t {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		t.state = taskRunning
		s.mu.Unlock()
		t.fn()
		s.mu.Lock()
		t.state = taskDone
		s.mu.Unlock()
	case taskRunning:
		for t.state != taskDone {
			s.cond.Wait()
		}
		s.mu.Unlock()
	default: // taskDone
		s.mu.Unlock()
	}
}

// Chunked splits [0, n) into one contiguous range per worker and runs
// fn(lo, hi) on each. Use it when workers amortize per-worker state
// (e.g. model clones) across their range. Chunks whose worker cannot be
// spawned within the process-wide budget run inline on the caller.
func Chunked(n int, fn func(lo, hi int)) {
	w := Limit(n)
	if w <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	base, rem := n/w, n%w
	var wg sync.WaitGroup
	lo := 0
	for g := 0; g < w; g++ {
		sz := base
		if g < rem {
			sz++
		}
		hi := lo + sz
		if g == w-1 {
			fn(lo, hi) // the caller always takes the last chunk
			break
		}
		select {
		case tokens <- struct{}{}:
			wg.Add(1)
			go func(lo, hi int) {
				defer func() {
					<-tokens
					wg.Done()
				}()
				fn(lo, hi)
			}(lo, hi)
		default:
			fn(lo, hi)
		}
		lo = hi
	}
	wg.Wait()
}
