package fedtrans

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// holdLane cuts the server down to one lane and takes that lane out, as
// if it were running a pass, so the callers that follow all queue and
// are served one pass after another. Give it back with
// srv.release(lane, 0), which is exactly what the end of a pass does.
func holdLane(srv *InferenceServer) *inferSession {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	lane := srv.free[0]
	srv.free = srv.free[:0]
	return lane
}

// awaitQueued blocks until n callers sit in the queue.
func awaitQueued(t *testing.T, srv *InferenceServer, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		srv.mu.Lock()
		queued := 0
		for q := srv.head; q != nil; q = q.next {
			queued++
		}
		srv.mu.Unlock()
		if queued == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers queued", queued, n)
		}
	}
}

// backlog queues one PredictBatchInto per entry of sizes — in order, on
// a held lane — and returns a wait function that joins the callers and
// checks every answer against want.
func backlog(t *testing.T, srv *InferenceServer, rows [][]float64, want []int, sizes []int) (wait func()) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(sizes))
	got := make([][]int, len(sizes))
	lo := 0
	for i, n := range sizes {
		got[i] = make([]int, n)
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			errs[i] = srv.PredictBatchInto(rows[lo:lo+n], got[i])
		}(lo)
		awaitQueued(t, srv, i+1) // one at a time keeps the queue in sizes order
		lo += n
	}
	return func() {
		t.Helper()
		wg.Wait()
		lo := 0
		for i, n := range sizes {
			if errs[i] != nil || !reflect.DeepEqual(got[i], want[lo:lo+n]) {
				t.Fatalf("queued request %d: classes %v, err %v; direct %v", i, got[i], errs[i], want[lo:lo+n])
			}
			lo += n
		}
	}
}

// TestInferenceServerCoalescesBacklog pins the overload path: with every
// lane busy callers queue, and the first lane to free answers all that
// fit in maxBatch rows in one pass — nobody waits behind a second.
func TestInferenceServerCoalescesBacklog(t *testing.T) {
	d := deployFixture(t)
	rows := fixtureRows(d.InputDim(), 48)
	want, err := d.PredictBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewInferenceServer(d, 64)
	defer srv.Close()
	lane := holdLane(srv)
	sizes := make([]int, 24) // 24 requests of 2 rows: 48 rows <= maxBatch
	for i := range sizes {
		sizes[i] = 2
	}
	wait := backlog(t, srv, rows, want, sizes)
	before := srv.passes
	srv.release(lane, 0)
	wait()
	if passes := srv.passes - before; passes != 1 {
		t.Errorf("%d requests took %d passes, want 1", len(sizes), passes)
	}
	if len(srv.free) != 1 || srv.head != nil || srv.active != 0 {
		t.Errorf("after the backlog: %d lanes free, queue head %v, %d active", len(srv.free), srv.head, srv.active)
	}
}

// TestInferenceServerMaxBatch pins the batch bound: followers join a
// pass only while its rows stay within maxBatch, in queue order, and a
// request larger than maxBatch is served whole, alone.
func TestInferenceServerMaxBatch(t *testing.T) {
	d := deployFixture(t)
	rows := fixtureRows(d.InputDim(), 40)
	want, err := d.PredictBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewInferenceServer(d, 4)
	defer srv.Close()

	big := make([]int, 11) // inline, on a free lane
	if err := srv.PredictBatchInto(rows[:11], big); err != nil || !reflect.DeepEqual(big, want[:11]) {
		t.Fatalf("11-row request at maxBatch 4: %v, err %v; direct %v", big, err, want[:11])
	}

	lane := holdLane(srv)
	// Passes: {2,2}, {11}, {3}, {2,1,1}.
	sizes := []int{2, 2, 11, 3, 2, 1, 1}
	wait := backlog(t, srv, rows, want, sizes)
	before := srv.passes
	srv.release(lane, 0)
	wait()
	if passes := srv.passes - before; passes != 4 {
		t.Errorf("queue %v at maxBatch 4 took %d passes, want 4", sizes, passes)
	}
}

// TestInferenceServerCloseDrains pins shutdown against a backlog: Close
// waits for queued callers, they get answers rather than
// ErrInferenceClosed, and callers arriving after Close began are
// refused.
func TestInferenceServerCloseDrains(t *testing.T) {
	d := deployFixture(t)
	rows := fixtureRows(d.InputDim(), 12)
	want, err := d.PredictBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewInferenceServer(d, 4)
	lane := holdLane(srv)
	wait := backlog(t, srv, rows, want, []int{3, 3, 3, 3})
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	for { // until Close has marked the server closed
		srv.mu.Lock()
		done := srv.closed
		srv.mu.Unlock()
		if done {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	if _, err := srv.Predict(rows[0]); !errors.Is(err, ErrInferenceClosed) {
		t.Fatalf("predict during close: %v, want ErrInferenceClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with four callers queued")
	default:
	}
	srv.release(lane, 0)
	wait()
	<-closed
}

// TestInferenceServerCloseRace closes the server under callers that
// never stop: each ends with ErrInferenceClosed after only correct
// answers, and nothing hangs.
func TestInferenceServerCloseRace(t *testing.T) {
	d := deployFixture(t)
	rows := fixtureRows(d.InputDim(), 16)
	want, err := d.PredictBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 20; rep++ {
		srv := NewInferenceServer(d, 4)
		var wg sync.WaitGroup
		started := make(chan struct{}, 1)
		errs := make([]error, 16)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; ; i = (i + 1) % len(rows) {
					y, err := srv.Predict(rows[i])
					if err == nil && y != want[i] {
						err = errors.New("prediction diverged while closing")
					}
					if err != nil {
						errs[g] = err
						return
					}
					select {
					case started <- struct{}{}:
					default:
					}
				}
			}()
		}
		<-started
		srv.Close()
		wg.Wait()
		for g, err := range errs {
			if !errors.Is(err, ErrInferenceClosed) {
				t.Fatalf("rep %d caller %d ended with %v, want ErrInferenceClosed", rep, g, err)
			}
		}
	}
}
