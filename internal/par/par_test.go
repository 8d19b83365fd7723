package par

import (
	"bytes"
	"errors"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stream runs StreamErr with a consumer that never fails.
func stream(t *testing.T, n, window int, produce, consume func(i int)) {
	t.Helper()
	err := StreamErr(n, window, produce, func(i int) error {
		consume(i)
		return nil
	})
	if err != nil {
		t.Fatalf("StreamErr = %v with a nil-returning consumer", err)
	}
}

func TestStreamConsumesInOrderOnce(t *testing.T) {
	for _, window := range []int{1, 2, 7, 64} {
		const n = 200
		produced := make([]int32, n)
		var order []int
		stream(t, n, window, func(i int) {
			atomic.AddInt32(&produced[i], 1)
		}, func(i int) {
			if atomic.LoadInt32(&produced[i]) != 1 {
				t.Errorf("window %d: consume(%d) before/without produce", window, i)
			}
			order = append(order, i)
		})
		if len(order) != n {
			t.Fatalf("window %d: consumed %d of %d", window, len(order), n)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("window %d: consume order %v... not ascending", window, order[:i+1])
			}
		}
		for i := range produced {
			if produced[i] != 1 {
				t.Fatalf("window %d: produce(%d) ran %d times", window, i, produced[i])
			}
		}
	}
}

// TestStreamBoundsOutstanding pins the memory guarantee: at no moment
// are more than window items claimed-for-production but not yet
// consumed.
func TestStreamBoundsOutstanding(t *testing.T) {
	const n, window = 300, 5
	var mu sync.Mutex
	outstanding, maxOut := 0, 0
	stream(t, n, window, func(i int) {
		mu.Lock()
		outstanding++
		if outstanding > maxOut {
			maxOut = outstanding
		}
		mu.Unlock()
	}, func(i int) {
		mu.Lock()
		outstanding--
		mu.Unlock()
	})
	if maxOut > window {
		t.Fatalf("%d items outstanding, window %d", maxOut, window)
	}
	if maxOut == 0 {
		t.Fatal("no item ever produced")
	}
}

// TestStreamMatchesSerial pins byte-identical results to the serial
// produce-then-consume loop when the consumer owns shared state (here a
// running checksum whose value depends on consumption order).
func TestStreamMatchesSerial(t *testing.T) {
	const n = 128
	run := func(window int) uint64 {
		results := make([]uint64, n)
		var sum uint64 = 1
		stream(t, n, window, func(i int) {
			results[i] = uint64(i)*2654435761 + 1
		}, func(i int) {
			sum = sum*31 + results[i]
		})
		return sum
	}
	want := run(1)
	for _, w := range []int{2, 3, 16, n} {
		if got := run(w); got != want {
			t.Fatalf("window %d checksum %d != serial %d", w, got, want)
		}
	}
}

func TestStreamEmptyAndSingle(t *testing.T) {
	stream(t, 0, 4, func(int) { t.Fatal("produce on n=0") }, func(int) { t.Fatal("consume on n=0") })
	ran := false
	stream(t, 1, 0, func(i int) {}, func(i int) { ran = true }) // window clamps to 1
	if !ran {
		t.Fatal("single-item stream did not consume")
	}
}

func withGOMAXPROCS(n int, fn func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

func TestForNCoversEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, n := range []int{0, 1, 3, 7, 100} {
			withGOMAXPROCS(procs, func() {
				counts := make([]int32, n)
				ForN(n, func(i int) {
					atomic.AddInt32(&counts[i], 1)
				})
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("procs=%d n=%d: index %d ran %d times", procs, n, i, c)
					}
				}
			})
		}
	}
}

// TestNestedForNDoesNotDeadlock exercises the shared token budget: an
// outer fan-out whose workers each fan out again must complete (inner
// calls degrade to inline execution when the budget is exhausted).
func TestNestedForNDoesNotDeadlock(t *testing.T) {
	withGOMAXPROCS(4, func() {
		var total atomic.Int64
		ForN(8, func(i int) {
			ForN(8, func(j int) {
				total.Add(1)
			})
		})
		if got := total.Load(); got != 64 {
			t.Fatalf("nested ForN ran %d tasks, want 64", got)
		}
	})
}

func TestLimit(t *testing.T) {
	withGOMAXPROCS(4, func() {
		if got := Limit(2); got != 2 {
			t.Fatalf("Limit(2) = %d, want 2", got)
		}
		if got := Limit(100); got != 4 {
			t.Fatalf("Limit(100) = %d, want 4", got)
		}
		if got := Limit(0); got != 1 {
			t.Fatalf("Limit(0) = %d, want 1", got)
		}
	})
}

// TestStreamErrAbortDrainsProducers pins the early-abort contract: a
// consumer error mid-window must stop the stream, drain every producer
// already started (no leaked goroutines, no deadlock), never consume a
// later index, and return the error.
func TestStreamErrAbortDrainsProducers(t *testing.T) {
	errBoom := errors.New("boom")
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			for _, window := range []int{1, 2, 7, 64} {
				const n, failAt = 120, 23
				before := runtime.NumGoroutine()
				produced := make([]int32, n)
				var consumed []int
				err := StreamErr(n, window, func(i int) {
					atomic.AddInt32(&produced[i], 1)
				}, func(i int) error {
					if atomic.LoadInt32(&produced[i]) != 1 {
						t.Errorf("procs %d window %d: consume(%d) before produce", procs, window, i)
					}
					consumed = append(consumed, i)
					if i == failAt {
						return errBoom
					}
					return nil
				})
				if err != errBoom {
					t.Fatalf("procs %d window %d: err = %v, want errBoom", procs, window, err)
				}
				if len(consumed) != failAt+1 {
					t.Fatalf("procs %d window %d: consumed %d indices, want %d (nothing after the failure)",
						procs, window, len(consumed), failAt+1)
				}
				for i, v := range consumed {
					if v != i {
						t.Fatalf("procs %d window %d: consume order broken at %d: %v", procs, window, i, consumed[:i+1])
					}
				}
				// Outstanding producers were at most a window ahead of the
				// failure point; everything claimed must have completed
				// exactly once, and nothing beyond the window could start.
				for i := range produced {
					if produced[i] > 1 {
						t.Fatalf("procs %d window %d: produce(%d) ran %d times", procs, window, i, produced[i])
					}
					if i > failAt+window && produced[i] != 0 {
						t.Fatalf("procs %d window %d: produce(%d) ran after abort beyond the window", procs, window, i)
					}
				}
				// All workers must have exited: StreamErr returns only after
				// wg.Wait, so any surplus goroutines are leaks.
				deadline := time.Now().Add(2 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if got := runtime.NumGoroutine(); got > before {
					t.Fatalf("procs %d window %d: %d goroutines after abort, started with %d (leak)",
						procs, window, got, before)
				}
			}
		})
	}
}

// TestStreamErrNoErrorMatchesStream pins that the error path is inert
// when the consumer never fails.
func TestStreamErrNoErrorMatchesStream(t *testing.T) {
	const n = 100
	var order []int
	if err := StreamErr(n, 8, func(i int) {}, func(i int) error {
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if len(order) != n {
		t.Fatalf("consumed %d of %d", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order broken at %d", i)
		}
	}
}

// TestStreamErrFirstIndexFailure aborts before any pipeline overlap has
// built up — the degenerate case where the failure is at the frontier's
// first item.
func TestStreamErrFirstIndexFailure(t *testing.T) {
	errBoom := errors.New("boom")
	err := StreamErr(50, 16, func(i int) {}, func(i int) error { return errBoom })
	if err != errBoom {
		t.Fatalf("err = %v, want errBoom", err)
	}
}

// TestTaskStreamRunsEveryTaskOnce submits a batch of tasks and waits
// them in a scrambled, consumer-chosen order: every task must run
// exactly once and its writes must be visible after Wait, at any
// parallelism.
func TestTaskStreamRunsEveryTaskOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			for _, limit := range []int{0, 1, 8} {
				const n = 100
				s := NewTaskStream(limit)
				ran := make([]int32, n)
				out := make([]int, n)
				tasks := make([]*Task, n)
				for i := 0; i < n; i++ {
					i := i
					tasks[i] = s.Go(func() {
						atomic.AddInt32(&ran[i], 1)
						out[i] = i * i
					})
				}
				// Wait in a deterministic but non-submission order.
				for k := 0; k < n; k++ {
					i := (k*37 + 11) % n
					s.Wait(tasks[i])
					if out[i] != i*i {
						t.Fatalf("procs %d limit %d: task %d result not visible after Wait", procs, limit, i)
					}
				}
				for i := range ran {
					if ran[i] != 1 {
						t.Fatalf("procs %d limit %d: task %d ran %d times", procs, limit, i, ran[i])
					}
				}
			}
		})
	}
}

// TestTaskStreamWaitIdempotent pins that re-waiting a finished task is a
// no-op and never re-runs it.
func TestTaskStreamWaitIdempotent(t *testing.T) {
	s := NewTaskStream(4)
	var runs int32
	tk := s.Go(func() { atomic.AddInt32(&runs, 1) })
	s.Wait(tk)
	s.Wait(tk)
	s.Wait(tk)
	if got := atomic.LoadInt32(&runs); got != 1 {
		t.Fatalf("task ran %d times across repeated Waits, want 1", got)
	}
}

// TestTaskStreamCrossEpochStaleTasks models the asynchronous round
// loop's stale-path: tasks submitted in epoch r are left unconsumed
// while later epochs submit and consume their own work, then the stale
// stragglers are finally waited several epochs later. Results must be
// intact regardless of how long a task stayed outstanding.
func TestTaskStreamCrossEpochStaleTasks(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			s := NewTaskStream(4)
			type item struct {
				tk    *Task
				epoch int
				val   int
			}
			var stale []*item
			sum := 0
			for epoch := 0; epoch < 6; epoch++ {
				// Two fresh tasks per epoch; consume one now, strand one.
				for j := 0; j < 2; j++ {
					it := &item{epoch: epoch}
					v := epoch*10 + j
					it.tk = s.Go(func() { it.val = v })
					if j == 0 {
						s.Wait(it.tk)
						if it.val != v {
							t.Fatalf("procs %d: fresh task value %d, want %d", procs, it.val, v)
						}
						sum += it.val
					} else {
						stale = append(stale, it)
					}
				}
				// Bounded staleness: anything older than 2 epochs is forced.
				keep := stale[:0]
				for _, it := range stale {
					if epoch-it.epoch >= 2 {
						s.Wait(it.tk)
						sum += it.val
					} else {
						keep = append(keep, it)
					}
				}
				stale = keep
			}
			for _, it := range stale {
				s.Wait(it.tk)
				sum += it.val
			}
			want := 0
			for epoch := 0; epoch < 6; epoch++ {
				want += epoch*10 + (epoch*10 + 1)
			}
			if sum != want {
				t.Fatalf("procs %d: stale-task sum %d, want %d", procs, sum, want)
			}
		})
	}
}

// TestStreamErrAbortWhileStale aborts a wide-window stream at an early
// index while many later items are already produced ("stale": claimed
// and completed but never to be consumed). The abort must drain cleanly,
// consume nothing past the failure, and leave every produced item's
// state fully written — the contract the round loop's buffer-reclaim
// pass after a lost quorum depends on.
func TestStreamErrAbortWhileStale(t *testing.T) {
	errBoom := errors.New("boom")
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			const n, window, failAt = 200, 64, 3
			state := make([]int32, n) // 0 untouched, 1 half-written, 2 complete
			var consumed int32
			err := StreamErr(n, window, func(i int) {
				atomic.StoreInt32(&state[i], 1)
				atomic.StoreInt32(&state[i], 2)
			}, func(i int) error {
				atomic.AddInt32(&consumed, 1)
				if i == failAt {
					return errBoom
				}
				return nil
			})
			if err != errBoom {
				t.Fatalf("procs %d: err = %v, want errBoom", procs, err)
			}
			if got := atomic.LoadInt32(&consumed); got != failAt+1 {
				t.Fatalf("procs %d: consumed %d items, want %d", procs, got, failAt+1)
			}
			// Every item a worker started (the stale window beyond the
			// failure) must have run to completion: no half-written state.
			for i := range state {
				if s := atomic.LoadInt32(&state[i]); s == 1 {
					t.Fatalf("procs %d: produce(%d) left half-written state after abort", procs, i)
				}
			}
		})
	}
}

// TestTaskStreamSubmitAllocatesNothing pins the round engine's
// per-dispatch cost: resubmitting a recycled Task allocates nothing.
func TestTaskStreamSubmitAllocatesNothing(t *testing.T) {
	s := NewTaskStream(4)
	runs := 0
	tk := Task{Fn: func() { runs++ }}
	s.Submit(&tk)
	s.Wait(&tk)
	if allocs := testing.AllocsPerRun(100, func() {
		s.Submit(&tk)
		s.Wait(&tk)
	}); allocs != 0 {
		t.Errorf("Submit+Wait of a recycled task allocates %.1f times", allocs)
	}
	if runs != 102 {
		t.Errorf("task ran %d times, want 102", runs)
	}
}

// TestTaskStreamDropWithdrawsQueued pins Drop: a task no goroutine
// started never runs, one already started is awaited, and no more than
// the window ever starts ahead of consumption.
func TestTaskStreamDropWithdrawsQueued(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			const n, window = 50, 2
			s := NewTaskStream(window)
			state := make([]int32, n) // 0 never ran, 1 running, 2 finished
			tasks := make([]*Task, n)
			for i := range tasks {
				tasks[i] = s.Go(func() {
					atomic.StoreInt32(&state[i], 1)
					time.Sleep(50 * time.Microsecond)
					atomic.StoreInt32(&state[i], 2)
				})
			}
			s.Wait(tasks[0])
			for i := n - 1; i > 0; i-- {
				s.Drop(tasks[i])
			}
			started := 0
			for i := 1; i < n; i++ {
				switch atomic.LoadInt32(&state[i]) {
				case 1:
					t.Fatalf("procs %d: task %d still running after Drop returned", procs, i)
				case 2:
					started++
				}
			}
			if started > window {
				t.Fatalf("procs %d: %d dropped tasks ran, window %d", procs, started, window)
			}
		})
	}
}

// recoverWorkerPanic runs fn, which must panic with a re-raised task
// panic, and checks that it carries the task's value and the stack of
// the goroutine the task ran on (where frame names the task's function).
func recoverWorkerPanic(t *testing.T, what, frame string, fn func()) {
	t.Helper()
	var r any
	func() {
		defer func() { r = recover() }()
		fn()
	}()
	p, ok := r.(*workerPanic)
	if !ok {
		t.Fatalf("%s: recovered %#v, want a re-raised *workerPanic", what, r)
	}
	if p.value != "boom" {
		t.Fatalf("%s: panic value %v, want boom", what, p.value)
	}
	if msg := p.Error(); !strings.Contains(msg, "boom") || !strings.Contains(msg, frame) {
		t.Fatalf("%s: message does not carry the value and the task's frame %q:\n%s", what, frame, msg)
	}
}

// onCaller reports whether the running goroutine is the test's own: only
// its stack holds the test function's frame (a task's closures are
// named test.funcN).
func onCaller(test string) bool { return bytes.Contains(debug.Stack(), []byte(test+"(")) }

// tokensFree waits until every background worker of an earlier test has
// returned its token: one that exits late would make the next fan-out
// run inline.
func tokensFree(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); len(tokens) > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still hold tokens", len(tokens))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestForNReraisesWorkerPanic(t *testing.T) {
	tokensFree(t)
	withGOMAXPROCS(2, func() {
		workerRan := make(chan struct{})
		recoverWorkerPanic(t, "ForN", "TestForNReraisesWorkerPanic.func", func() {
			ForN(2, func(i int) {
				if !onCaller("par.TestForNReraisesWorkerPanic") {
					close(workerRan)
					panic("boom")
				}
				select { // the caller's index waits for the worker's
				case <-workerRan:
				case <-time.After(10 * time.Second):
					t.Error("no worker ran the other index")
				}
			})
		})
	})
}

func TestStreamErrReraisesWorkerPanic(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			var consumed []int
			var produced atomic.Int32
			recoverWorkerPanic(t, "StreamErr", "TestStreamErrReraisesWorkerPanic.func", func() {
				StreamErr(40, 4, func(i int) {
					produced.Add(1)
					if i == 3 {
						panic("boom")
					}
				}, func(i int) error {
					consumed = append(consumed, i)
					return nil
				})
			})
			if len(consumed) != 3 {
				t.Fatalf("procs %d: consumed %v, want 0 1 2", procs, consumed)
			}
			if n := produced.Load(); n > 3+1+4 {
				t.Fatalf("procs %d: %d indices produced past a window of 4 after the panic", procs, n)
			}
			// Every worker returns its token: the later indices were
			// withdrawn, not left queued behind a consumer that is gone.
			tokensFree(t)
		})
	}
}

func TestTaskStreamWaitReraisesWorkerPanic(t *testing.T) {
	withGOMAXPROCS(4, func() {
		s := NewTaskStream(4)
		started := make(chan struct{})
		bad := s.Go(func() {
			close(started)
			panic("boom")
		})
		<-started // running on a worker, not inline at Wait
		ok := s.Go(func() {})
		recoverWorkerPanic(t, "Wait", "TestTaskStreamWaitReraisesWorkerPanic.func", func() { s.Wait(bad) })
		s.Wait(ok) // the stream stays usable, and the panic was raised once
		s.Wait(bad)
		dropped := s.Go(func() { panic("boom") })
		s.Drop(dropped) // Drop discards the result, panic included
	})
}
