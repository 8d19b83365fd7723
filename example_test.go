package fedtrans_test

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"reflect"

	"fedtrans"
)

// check stops an example at its first error.
func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// randRows draws n feature rows of width dim.
func randRows(seed int64, n, dim int) [][]float64 {
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

// Example trains a multi-model suite on the FEMNIST profile and lists the
// models transformation generated. These Outputs print no trained number:
// the kernel tier may move one in its last bits.
func Example() {
	opts := fedtrans.DefaultOptions()
	opts.Clients, opts.Rounds, opts.ClientsPerRound = 40, 80, 10
	summary, err := fedtrans.Run(opts)
	check(err)
	fmt.Println("rounds:", summary.Rounds, "clients:", len(summary.ClientAccuracy))
	for i, m := range summary.Models {
		fmt.Printf("M%d %s, %d params\n", i, m.Arch, m.Params)
	}
	// Output:
	// rounds: 80 clients: 40
	// M0 dense(8)->head(16), 664 params
	// M1 dense(16)->head(16), 1312 params
	// M2 dense(16)->dense(16)->head(16), 1584 params
	// M3 dense(16)->dense(32)->head(16), 2112 params
	// M4 dense(32)->dense(32)->head(16), 3664 params
	// M5 dense(32)->dense(32)->dense(32)->head(16), 4720 params
	// M6 dense(32)->dense(32)->dense(64)->head(16), 6288 params
	// M7 dense(32)->dense(32)->dense(64)->dense(64)->dense(64)->head(16), 14608 params
	// M8 dense(64)->dense(32)->dense(64)->dense(64)->dense(64)->head(16), 17712 params
}

// ExampleSession_ExportModel shows the train → export → load → predict
// lifecycle: the exported blob is all a device needs.
func ExampleSession_ExportModel() {
	opts := fedtrans.DefaultOptions()
	opts.Clients, opts.Rounds, opts.ClientsPerRound = 24, 50, 8
	session, err := fedtrans.NewSession(opts)
	check(err)
	summary := session.Run()
	best := len(summary.Models) - 1
	blob, err := session.ExportModel(best)
	check(err)
	deployed, err := fedtrans.LoadModel(blob)
	check(err)
	fmt.Println("loaded:", deployed.Info() == summary.Models[best])
	rows := randRows(99, 3, deployed.InputDim())
	classes, err := deployed.PredictBatch(rows)
	check(err)
	one, err := deployed.Predict(rows[0])
	check(err)
	fmt.Println("batch of", len(classes), "matches Predict:", one == classes[0])
	_, err = deployed.Predict(rows[0][:3])
	fmt.Println(err)
	// Output:
	// loaded: true
	// batch of 3 matches Predict: true
	// fedtrans: feature dim 3, model expects 64
}

// ExampleNewSession_heterogeneity stresses device heterogeneity (the
// paper's Figure 1a axis): a wider capacity spread in the simulated trace
// reshapes the suite transformation grows for weak and strong devices.
func ExampleNewSession_heterogeneity() {
	for _, spread := range []float64{4, 32} {
		opts := fedtrans.DefaultOptions()
		opts.Clients, opts.Rounds, opts.ClientsPerRound = 36, 70, 9
		opts.CapacitySpread = spread
		session, err := fedtrans.NewSession(opts)
		check(err)
		models := session.Run().Models
		fmt.Printf("spread %.0fx: device disparity %.1fx, %d models, largest %s\n",
			spread, session.DeviceDisparity(), len(models), models[len(models)-1].Arch)
	}
	// Output:
	// spread 4x: device disparity 4.0x, 4 models, largest dense(16)->dense(32)->head(16)
	// spread 32x: device disparity 32.0x, 7 models, largest dense(32)->dense(32)->dense(64)->head(16)
}

// ExampleInferenceServer_Serve serves a trained model on loopback to four
// concurrent remote clients, whose frames the server coalesces into shared
// forward passes; a remote class equals the local one.
func ExampleInferenceServer_Serve() {
	opts := fedtrans.DefaultOptions()
	opts.Clients, opts.Rounds, opts.ClientsPerRound = 24, 30, 8
	session, err := fedtrans.NewSession(opts)
	check(err)
	blob, err := session.ExportModel(len(session.Run().Models) - 1)
	check(err)
	deployed, err := fedtrans.LoadModel(blob)
	check(err)
	srv := fedtrans.NewInferenceServer(deployed, fedtrans.DefaultMaxBatch)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go srv.Serve(ln)
	same := make(chan bool, 4)
	for c := 0; c < 4; c++ {
		go func(c int) {
			cl, err := fedtrans.DialInference(ln.Addr().String())
			check(err)
			defer cl.Close()
			rows := randRows(int64(100+c), 8, cl.InputDim())
			remote, err := cl.PredictBatch(rows)
			check(err)
			local, err := deployed.PredictBatch(rows)
			check(err)
			same <- reflect.DeepEqual(remote, local)
		}(c)
	}
	fmt.Println("4 clients' remote classes == Deployed.PredictBatch:", <-same && <-same && <-same && <-same)
	ln.Close()
	srv.Close()
	_, err = srv.Predict(make([]float64, deployed.InputDim()))
	fmt.Println(errors.Is(err, fedtrans.ErrInferenceClosed), err)
	// Output:
	// 4 clients' remote classes == Deployed.PredictBatch: true
	// true fedtrans: inference server closed
}

// ExampleOptions_asynchronous runs a straggler-heavy workload in sync and
// in staleness-bounded async (FedBuff-style) rounds: asynchrony overlaps
// the stragglers' delays across rounds instead of waiting each one out.
func ExampleOptions_asynchronous() {
	opts := fedtrans.DefaultOptions()
	opts.Clients, opts.Rounds, opts.ClientsPerRound, opts.Seed = 30, 25, 10, 3
	// A quarter of all attempts stall for 60 simulated seconds.
	opts.Chaos = fedtrans.ChaosOptions{StragglerRate: 0.25, StragglerDelay: 60}
	sync, err := fedtrans.Run(opts)
	check(err)
	opts.MaxStaleness = 2
	async, err := fedtrans.Run(opts)
	check(err)
	fmt.Println("rounds:", sync.Rounds, async.Rounds)
	fmt.Println("async wall clock < sync:", async.WallClock < sync.WallClock)
	fmt.Println("async folds stale updates:", async.MeanStaleness > 0)
	// Output:
	// rounds: 25 25
	// async wall clock < sync: true
	// async folds stale updates: true
}

// ExampleScaleOptions runs 100 000 generative clients, synthesized on
// demand so setup cost depends on the participants, not the population
// (EvalSample keeps the final sweep to a 500-client panel too).
func ExampleScaleOptions() {
	opts := fedtrans.ScaleOptions()
	opts.Population = 100_000
	opts.ClientsPerRound, opts.Rounds, opts.EvalSample = 500, 3, 500
	res, err := fedtrans.Run(opts)
	check(err)
	fmt.Println("rounds:", res.Rounds, "models:", len(res.Models))
	// Output:
	// rounds: 3 models: 1
}
