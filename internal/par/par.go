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
//
// A panic in a task is never left on a goroutine nobody can recover: the
// first one a fan-out's worker raises is re-raised, with the worker's
// stack, on the goroutine that called ForN or StreamErr, or
// that waits the task (TaskStream.Wait).
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// workerPanic is what a re-raised task panic carries: the value the task
// panicked with and the stack of the goroutine that ran it.
type workerPanic struct {
	value any
	stack []byte
}

func (p *workerPanic) Error() string {
	return fmt.Sprintf("par: task panicked: %v\n\n%s", p.value, p.stack)
}

// catch runs fn and returns the panic it raised, or nil.
func catch(fn func()) (p *workerPanic) {
	defer func() {
		if r := recover(); r != nil {
			p = &workerPanic{r, debug.Stack()}
		}
	}()
	fn()
	return nil
}

// tokens bounds the number of extra worker goroutines alive across all
// concurrent ForN calls and TaskStreams in the process.
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
	var first atomic.Pointer[workerPanic]
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
				first.CompareAndSwap(nil, catch(work))
			}()
		default:
			g = w // budget exhausted; remaining work runs inline
		}
	}
	work()
	wg.Wait()
	if p := first.Load(); p != nil {
		panic(p)
	}
}

// StreamErr runs produce(i) for every i in [0, n) on a TaskStream of the
// given window and calls consume(i) on the caller once per index, in
// ascending order, overlapping with production: at most window indices
// are produced but not yet consumed at any moment, so per-item results
// take O(window) memory, and consume(i) happens-after produce(i). Because
// consume runs single-threaded in index order, it may use shared state
// (an RNG, accumulators) without synchronization, and the result is
// byte-identical to the serial loop
//
//	for i := 0; i < n; i++ { produce(i); consume(i) }
//
// which is what StreamErr runs at GOMAXPROCS=1. When consume returns an
// error, no later index is consumed or starts producing, the producers
// already running finish, and the error is returned; callers owning
// per-index resources must tolerate both produced-but-unconsumed and
// never-produced indices after it.
//
// A panic in produce(i) is re-raised by the Wait for index i, on the
// caller; like an error, it withdraws every later index first.
func StreamErr(n, window int, produce func(i int), consume func(i int) error) error {
	s := NewTaskStream(max(window, 1))
	tasks := make([]Task, max(n, 0))
	for i := range tasks {
		tasks[i].Fn = func() { produce(i) }
		s.Submit(&tasks[i])
	}
	i := 0
	defer func() {
		// Withdraw from the back: a window slot freed here can then only
		// go to the oldest index left, never past the window.
		for j := n - 1; j > i; j-- {
			s.Drop(&tasks[j])
		}
	}()
	for ; i < n; i++ {
		s.Wait(&tasks[i])
		if err := consume(i); err != nil {
			return err
		}
	}
	return nil
}

// Task states in a TaskStream. The zero value is a task no stream holds.
const (
	taskIdle    = iota // never submitted, or consumed
	taskQueued         // submitted, claimable by a worker or by the consumer
	taskRunning        // some goroutine is executing Fn
	taskDone           // Fn returned; not yet consumed
)

// Task is one unit of work in a TaskStream. Go makes one per call; a
// caller that must not allocate per task sets Fn once and hands the same
// Task to Submit again after Wait or Drop returned for it.
type Task struct {
	Fn    func()
	state int
	panic *workerPanic // what Fn raised, until the task is consumed
}

// TaskStream is the completion stream: tasks are submitted in order, run
// by background workers or inline by the consumer, and consumed by Wait
// in whatever order the consumer chooses (the round engine's fold order).
// At most window tasks are started but not yet consumed at any moment — a
// task stays counted until the consumer's next Wait or Drop, so the one it
// is folding counts too — which bounds the results held at once to
// O(window) however many tasks are submitted.
//
// Workers run on the shared process-wide token budget, at most window of
// them and fewer than GOMAXPROCS. Wait runs a still-queued task inline,
// and while the task it awaits runs elsewhere it runs the oldest queued
// task itself if the window has room. So with no spare tokens, or at
// GOMAXPROCS=1, the stream is a serial loop executing tasks in Wait order.
// Because a task's Fn must confine its writes to task-owned state, results
// are byte-identical regardless of which goroutine ran which task.
//
// Every submitted task must be waited or dropped. Submit, Go, Wait and
// Drop must be called from a single consumer goroutine.
type TaskStream struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*Task // in submission order; entries no longer queued are skipped
	head    int     // queue[:head] holds no queued task
	out     int     // tasks started and not yet consumed
	held    bool    // out counts the task Wait last returned
	workers int     // live background workers
	window  int
	spawn   int // the most workers: window, and fewer than GOMAXPROCS at construction
}

// NewTaskStream returns a stream that starts at most window tasks ahead of
// their consumption (window < 1: every task runs inline at Wait).
func NewTaskStream(window int) *TaskStream {
	s := &TaskStream{window: window, spawn: min(window, runtime.GOMAXPROCS(0)-1)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Go submits fn for execution and returns its Task handle.
func (s *TaskStream) Go(fn func()) *Task {
	t := &Task{Fn: fn}
	s.Submit(t)
	return t
}

// Submit queues t, which must be idle. t.Fn may begin on a background
// worker at once or run inline later at Wait; it must confine its writes
// to task-owned state. Submit allocates nothing once the queue has grown
// to the stream's peak.
func (s *TaskStream) Submit(t *Task) {
	s.mu.Lock()
	t.state = taskQueued
	if s.next() == nil {
		s.queue, s.head = s.queue[:0], 0
	} else if s.head > 0 && len(s.queue) == cap(s.queue) {
		n := copy(s.queue, s.queue[s.head:])
		clear(s.queue[n:])
		s.queue, s.head = s.queue[:n], 0
	}
	s.queue = append(s.queue, t)
	spawn := false
	// The live GOMAXPROCS is read only when a worker may be missing: the
	// read takes the scheduler's lock.
	if s.workers < s.spawn && s.workers < runtime.GOMAXPROCS(0)-1 {
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
}

// next returns the oldest queued task, or nil. The caller holds mu.
func (s *TaskStream) next() *Task {
	for ; s.head < len(s.queue); s.head++ {
		if t := s.queue[s.head]; t.state == taskQueued {
			return t
		}
		s.queue[s.head] = nil
	}
	return nil
}

// run executes t, claimed by the caller, with mu released around Fn.
func (s *TaskStream) run(t *Task) {
	t.state = taskRunning
	s.out++
	s.mu.Unlock()
	p := catch(t.Fn)
	s.mu.Lock()
	t.state, t.panic = taskDone, p
	s.cond.Broadcast()
}

func (s *TaskStream) worker() {
	s.mu.Lock()
	for t := s.next(); t != nil; t = s.next() {
		if s.out >= s.window {
			s.cond.Wait()
			continue
		}
		s.run(t)
	}
	s.workers--
	s.mu.Unlock()
	<-tokens
}

// Wait ensures t's Fn has run and consumes t: a still-queued task runs
// inline on the caller, a running task is awaited, a finished task
// returns at once. After Wait returns, all of Fn's writes are visible to
// the caller. If Fn panicked, on whichever goroutine ran it, Wait
// re-raises that panic with the goroutine's stack. Waiting a consumed
// task again is a no-op.
func (s *TaskStream) Wait(t *Task) { s.consume(t, true) }

// Drop consumes t without its result: a still-queued task is withdrawn
// and never runs, a running one is awaited, and a panic of its Fn is
// discarded.
func (s *TaskStream) Drop(t *Task) { s.consume(t, false) }

func (s *TaskStream) consume(t *Task, run bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.cond.Broadcast() // out fell, or a queued task left the queue
	if s.held {
		s.held = false
		s.out--
	}
	if t.state == taskIdle || t.state == taskQueued && !run {
		t.state = taskIdle
		return
	}
	for t.state != taskDone {
		if t.state == taskQueued {
			s.run(t)
		} else if n := s.next(); n != nil && s.out < s.window {
			s.run(n)
		} else {
			s.cond.Wait()
		}
	}
	t.state = taskIdle
	p := t.panic
	t.panic = nil
	if !run {
		s.out--
		return
	}
	s.held = true
	if p != nil {
		panic(p)
	}
}
