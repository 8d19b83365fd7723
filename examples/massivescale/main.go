// Command massivescale runs a generative-population FedTrans round loop:
// 100,000 clients whose data shards and device-trace entries are
// synthesized on demand from (seed, clientID), so server-side setup cost
// and resident state depend only on the active participants — not on the
// population size. Aggregation is sharded across four edge aggregators;
// the result is bit-identical to a single-tier, fully materialized run
// with the same seed. Raising Population to one million scales the same
// profile to the paper's production population size.
//
// Run with:
//
//	go run ./examples/massivescale
package main

import (
	"fmt"
	"log"

	"fedtrans"
)

func main() {
	opts := fedtrans.ScaleOptions()
	opts.Population = 100_000 // generative: nothing materialized up front
	opts.EdgeAggregators = 4  // two-tier aggregation, bit-identical results
	opts.ClientsPerRound = 500
	opts.Rounds = 3

	fmt.Printf("FedTrans massive scale: %d generative clients, %d/round across %d edge aggregators...\n",
		opts.Population, opts.ClientsPerRound, opts.EdgeAggregators)
	summary, err := fedtrans.Run(opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nmean client accuracy : %.1f%%\n", summary.MeanAccuracy*100)
	fmt.Printf("training cost        : %.3g MACs\n", summary.TrainMACs)
	fmt.Printf("network volume       : %.2f MB\n", float64(summary.NetworkBytes)/1e6)
	fmt.Printf("rounds executed      : %d\n", summary.Rounds)
	fmt.Printf("model suite          : %d models\n", len(summary.Models))
}
