// Command serving demonstrates the pooled inference-serving path: it
// trains a FedTrans suite, deploys the largest model behind an
// InferenceServer (whose lanes run a lone request inline and coalesce a
// backlog into one strided batch forward), exposes it over TCP, and
// drives it from several remote clients at once. The same lanes also
// answer in-process Predict/PredictBatchInto calls.
//
// Run with:
//
//	go run ./examples/serving
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"

	"fedtrans"
)

func main() {
	opts := fedtrans.DefaultOptions()
	opts.Clients = 24
	opts.Rounds = 30
	opts.ClientsPerRound = 8

	session, err := fedtrans.NewSession(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("training...")
	summary := session.Run()

	best := len(summary.Models) - 1
	blob, err := session.ExportModel(best)
	if err != nil {
		log.Fatal(err)
	}
	deployed, err := fedtrans.LoadModel(blob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving %s (%d params)\n", summary.Models[best].Arch, summary.Models[best].Params)

	// Stand the model up as a batching service on a loopback port.
	srv := fedtrans.NewInferenceServer(deployed, fedtrans.DefaultMaxBatch)
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer ln.Close()
	fmt.Printf("inference endpoint on %s\n", ln.Addr())

	// Several remote clients stream prediction frames concurrently; the
	// server folds frames that arrive together into shared forward
	// passes.
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := fedtrans.DialInference(ln.Addr().String())
			if err != nil {
				log.Fatal(err)
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			rows := make([][]float64, 8)
			for i := range rows {
				row := make([]float64, cl.InputDim())
				for j := range row {
					row[j] = rng.NormFloat64()
				}
				rows[i] = row
			}
			classes, err := cl.PredictBatch(rows)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("client %d: %d predictions, first class %d\n", c, len(classes), classes[0])
		}(c)
	}
	wg.Wait()

	// The in-process path shares the same lanes.
	features := make([]float64, deployed.InputDim())
	class, err := srv.Predict(features)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("in-process prediction: class %d\n", class)
}
