package fedtrans

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// deployFixture trains a tiny session and returns its first exported
// model, deployed.
func deployFixture(t *testing.T) *Deployed {
	t.Helper()
	opts := DefaultOptions()
	opts.Clients = 12
	opts.Rounds = 10
	opts.ClientsPerRound = 5
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	blob, err := s.ExportModel(0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := LoadModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func fixtureRows(dim, n int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, dim)
		for j := range row {
			row[j] = float64((i*31+j*7)%17) / 17
		}
		rows[i] = row
	}
	return rows
}

// TestInferenceServerParity pins the serving lanes against the
// direct path: every row must classify identically through per-call
// Predict, PredictBatch, the InferenceServer, and a remote client over
// TCP loopback (features travel as float32 — the backend element type —
// so the wire changes nothing).
func TestInferenceServerParity(t *testing.T) {
	d := deployFixture(t)
	rows := fixtureRows(d.InputDim(), 48)

	want := make([]int, len(rows))
	for i, r := range rows {
		y, err := d.Predict(r)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = y
	}
	batch, err := d.PredictBatch(rows)
	if err != nil || !reflect.DeepEqual(batch, want) {
		t.Fatalf("PredictBatch diverged from per-row Predict (err %v)", err)
	}

	srv := NewInferenceServer(d, 16)
	defer srv.Close()
	for i, r := range rows {
		y, err := srv.Predict(r)
		if err != nil {
			t.Fatal(err)
		}
		if y != want[i] {
			t.Fatalf("server row %d: class %d, direct %d", i, y, want[i])
		}
	}
	sBatch := make([]int, len(rows))
	if err := srv.PredictBatchInto(rows, sBatch); err != nil || !reflect.DeepEqual(sBatch, want) {
		t.Fatalf("server PredictBatchInto diverged (err %v)", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer ln.Close()
	cl, err := DialInference(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.InputDim() != d.InputDim() {
		t.Fatalf("client dim %d, model dim %d", cl.InputDim(), d.InputDim())
	}
	rBatch, err := cl.PredictBatch(rows)
	if err != nil || !reflect.DeepEqual(rBatch, want) {
		t.Fatalf("remote PredictBatch diverged (err %v)", err)
	}
	if y, err := cl.PredictBatch(rows[3:4]); err != nil || len(y) != 1 || y[0] != want[3] {
		t.Fatalf("remote one-row PredictBatch: %v, %v; want [%d]", y, err, want[3])
	}
	if _, err := cl.PredictBatch([][]float64{make([]float64, 3)}); err == nil {
		t.Fatal("remote wrong-dim row must fail")
	}
}

// TestInferenceServerConcurrent hammers the lanes from 32 goroutines
// mixing Predict and PredictBatchInto, with 1, 2 and 4 lanes: whether a
// request ran inline, led a coalesced pass or rode someone else's, it
// must be answered with its own rows' classes.
func TestInferenceServerConcurrent(t *testing.T) {
	d := deployFixture(t)
	rows := fixtureRows(d.InputDim(), 64)
	want, err := d.PredictBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		srv := NewInferenceServer(d, 8)
		if len(srv.free) != procs {
			t.Fatalf("GOMAXPROCS %d: %d lanes", procs, len(srv.free))
		}
		// Twice as many Ps as lanes from here on, so that callers do
		// find every lane busy and the queue and hand-off paths run too.
		runtime.GOMAXPROCS(2 * procs)
		var wg sync.WaitGroup
		errs := make([]error, 32)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				class := make([]int, 3)
				for rep := 0; rep < 40 && errs[g] == nil; rep++ {
					i := (g*40 + rep) % (len(rows) - len(class))
					if (g+rep)%2 == 0 {
						y, err := srv.Predict(rows[i])
						if err == nil && y != want[i] {
							err = fmt.Errorf("Predict row %d: class %d, direct %d", i, y, want[i])
						}
						errs[g] = err
						continue
					}
					err := srv.PredictBatchInto(rows[i:i+len(class)], class)
					if err == nil && !reflect.DeepEqual(class, want[i:i+len(class)]) {
						err = fmt.Errorf("PredictBatchInto rows %d..: %v, direct %v", i, class, want[i:i+len(class)])
					}
					errs[g] = err
				}
			}()
		}
		wg.Wait()
		srv.Close()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: %v", procs, err)
			}
		}
		t.Logf("%d lanes: %d requests in %d passes", procs, 32*40, srv.passes)
	}
}

// TestInferenceServerClosed pins shutdown: Close answers everything in
// flight, later calls fail typed, and Close is idempotent.
func TestInferenceServerClosed(t *testing.T) {
	d := deployFixture(t)
	srv := NewInferenceServer(d, 4)
	if _, err := srv.Predict(make([]float64, d.InputDim())); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close()
	if _, err := srv.Predict(make([]float64, d.InputDim())); !errors.Is(err, ErrInferenceClosed) {
		t.Fatalf("predict after close: %v, want ErrInferenceClosed", err)
	}
	if err := srv.PredictBatchInto(fixtureRows(d.InputDim(), 2), make([]int, 2)); !errors.Is(err, ErrInferenceClosed) {
		t.Fatalf("batch after close: %v, want ErrInferenceClosed", err)
	}
}

// TestServeLoopbackByteIdentical is the public-API golden test of the
// networked coordinator: the same Options run in-process and through
// ServeAddr + RunAgent over TCP loopback must produce identical
// Summaries and byte-identical checkpoints.
func TestServeLoopbackByteIdentical(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.Clients = 12
	opts.Rounds = 4
	opts.ClientsPerRound = 5
	opts.LocalSteps = 4
	opts.CheckpointEvery = 2

	opts.CheckpointPath = filepath.Join(dir, "inproc.ck")
	want, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}

	opts.CheckpointPath = filepath.Join(dir, "net.ck")
	opts.ServeAddr = "127.0.0.1:0"
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	agentDone := make(chan error, 1)
	go func() { agentDone <- RunAgent(s.CoordinatorAddr(), 2) }()
	got := s.Run()
	if err := <-agentDone; err != nil {
		t.Fatalf("agent exited with: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("networked summary diverged from in-process summary\nin-process: %+v\nnetworked:  %+v", want, got)
	}
	a, err := os.ReadFile(filepath.Join(dir, "inproc.ck"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "net.ck"))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("checkpoints differ: %d vs %d bytes", len(a), len(b))
	}
}

// TestEvalSamplePublic pins the public sampled-evaluation option:
// EvalSample >= Clients is the identity, and a strict sample yields one
// accuracy per panel client, deterministically.
func TestEvalSamplePublic(t *testing.T) {
	opts := DefaultOptions()
	opts.Clients = 12
	opts.Rounds = 4
	opts.ClientsPerRound = 5

	want, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.EvalSample = 12
	covered, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, covered) {
		t.Fatal("EvalSample >= Clients changed the summary")
	}

	opts.EvalSample = 5
	sA, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	sumA := sA.Run()
	if len(sumA.ClientAccuracy) != 5 {
		t.Fatalf("sampled run reports %d client accuracies, want 5", len(sumA.ClientAccuracy))
	}
	sB, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sumB := sB.Run(); !reflect.DeepEqual(sumA, sumB) {
		t.Fatal("identical sampled runs diverged")
	}
}
