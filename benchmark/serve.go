package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"fedtrans"
)

const (
	frameRows     = 8   // rows per PREDICT frame, as cmd/fedtrans clients send
	distinctRows  = 512 // seeded feature rows the frames cycle through
	prerollFrames = 100 // untimed frames per connection before each segment
)

// featureRows draws n rows of dim standard-normal features from seed.
func featureRows(seed int64, n, dim int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, dim)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}

// served is one panel member: a trained session and, after deploy, its
// largest model loaded for inference with the class Deployed.Predict
// gives every seeded row.
type served struct {
	session *fedtrans.Session
	sum     fedtrans.Summary
	largest int
	d       *fedtrans.Deployed
	want    []int
}

// serveWorkload is the serving path: a closed loop of agentWorkers
// connections, each waiting for its reply before sending the next
// 8-row frame, against InferenceServer.Serve on loopback. An open-loop
// schedule is left out on purpose: on two shared cores the generator's
// own lateness would dominate what it measured.
type serveWorkload struct {
	k, frames int
	rounds    int
	floor     float64
	seed      int64
	rows      [][]float64
	members   []served

	// latBuf holds one segment's frame latencies per connection; it is
	// reused so the timed part allocates nothing of its own.
	latBuf [agentWorkers][]int64
}

func newServeWorkload(seed int64, smoke bool) *serveWorkload {
	w := &serveWorkload{k: 8, frames: 4_000, rounds: 120, floor: 0.539, seed: seed}
	if smoke {
		w.k, w.frames, w.rounds, w.floor = 1, 300, 10, 0
	}
	return w
}

func (w *serveWorkload) panel() int             { return w.k }
func (w *serveWorkload) timed() int             { return w.k }
func (w *serveWorkload) warmups() int           { return 1 }
func (w *serveWorkload) accuracyFloor() float64 { return w.floor }

// prepare trains the default femnist session once per sub-seed. The
// served model and the training counts both come from these sessions.
func (w *serveWorkload) prepare() error {
	w.members = make([]served, w.k)
	for j := range w.members {
		o := fedtrans.DefaultOptions()
		o.Seed, o.Rounds = subSeed(w.seed, j), w.rounds
		s, err := fedtrans.NewSession(o)
		if err != nil {
			return err
		}
		p := &w.members[j]
		p.session, p.sum = s, s.Run()
		p.largest = largest(p.sum.Models)
	}
	return nil
}

// rep deploys every panel member: export, load, and the reference class
// of each seeded row.
func (w *serveWorkload) rep() (any, error) {
	for j := range w.members {
		p := &w.members[j]
		blob, err := p.session.ExportModel(p.largest)
		if err != nil {
			return nil, err
		}
		if p.d, err = fedtrans.LoadModel(blob); err != nil {
			return nil, err
		}
		if w.rows == nil {
			w.rows = featureRows(w.seed, distinctRows, p.d.InputDim())
		}
		p.want = make([]int, len(w.rows))
		for r, row := range w.rows {
			if p.want[r], err = p.d.Predict(row); err != nil {
				return nil, err
			}
		}
	}
	return nil, nil
}

// deployable: the unit of work is a frame against the served model, so
// the largest model is also the typical one.
func (w *serveWorkload) deployable() (fedtrans.Options, []byte, []byte, float64, error) {
	o := fedtrans.DefaultOptions()
	o.Seed, o.Rounds = subSeed(w.seed, 0), w.rounds
	blob, err := w.members[0].session.ExportModel(w.members[0].largest)
	return o, blob, blob, 1, err
}

func (w *serveWorkload) run(j int, tr *tracer, parent int) (seg segment, err error) {
	p := &w.members[j]
	var srv *fedtrans.InferenceServer
	tr.do(parent, "fedtrans.NewInferenceServer", func() { srv = fedtrans.NewInferenceServer(p.d, 0) })
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return seg, err
	}
	served := make(chan error, 1)
	go func() {
		id := tr.begin(parent, "fedtrans.InferenceServer.Serve")
		served <- srv.Serve(ln)
		tr.end(id)
	}()
	defer func() {
		ln.Close()
		<-served
	}()

	var clients [agentWorkers]*fedtrans.InferenceClient
	for c := range clients {
		tr.do(parent, "fedtrans.DialInference", func() { clients[c], err = fedtrans.DialInference(ln.Addr().String()) })
		if err != nil {
			return seg, err
		}
		defer clients[c].Close()
	}

	// loop sends n frames on connection c, starting at a per-connection
	// offset so the two connections never send the same row together.
	nFrames := len(w.rows) / frameRows
	loop := func(c, n int, lat []int64) (wrong int64, err error) {
		for f := 0; f < n; f++ {
			lo := (f + c*nFrames/agentWorkers) % nFrames * frameRows
			t0 := time.Now()
			got, err := clients[c].PredictBatch(w.rows[lo : lo+frameRows])
			if lat != nil {
				lat[f] = int64(time.Since(t0))
			}
			if err != nil {
				return wrong, err
			}
			for i, class := range got {
				if class != p.want[lo+i] {
					wrong++
				}
			}
		}
		return wrong, nil
	}
	// both runs the loop on every connection at once.
	both := func(n int, timed bool) (wrong int64, err error) {
		var (
			wg     sync.WaitGroup
			wrongs [agentWorkers]int64
			errs   [agentWorkers]error
			span   = tr.begin(parent, "fedtrans.InferenceClient.PredictBatch")
		)
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var lat []int64
				if timed {
					lat = w.latBuf[c]
				}
				wrongs[c], errs[c] = loop(c, n, lat)
			}()
		}
		wg.Wait()
		tr.end(span)
		for c := range clients {
			wrong += wrongs[c]
			if errs[c] != nil {
				err = errs[c]
			}
		}
		return wrong, err
	}

	if wrong, err := both(min(prerollFrames, w.frames), false); err != nil || wrong > 0 {
		return seg, fmt.Errorf("pre-roll: %d wrong classes, err %v", wrong, err)
	}
	for c := range w.latBuf {
		if len(w.latBuf[c]) != w.frames {
			w.latBuf[c] = make([]int64, w.frames)
		}
	}
	seg.start()
	wrong, err := both(w.frames, true)
	seg.stop()
	if err != nil {
		return seg, err
	}
	for c := range w.latBuf {
		seg.latency = append(seg.latency, w.latBuf[c]...)
	}
	seg.frames = int64(agentWorkers * w.frames)
	seg.ops = seg.frames * frameRows
	seg.failed = wrong
	seg.counts = countsOf(p.sum)
	return seg, nil
}
