// Command heterodevices demonstrates FedTrans under extreme device
// heterogeneity: it runs the same workload with a narrow and a wide device
// capacity spread and shows how the transformed model suite and the
// accuracy of weak vs strong clients respond.
//
// Run with:
//
//	go run ./examples/heterodevices
package main

import (
	"fmt"
	"log"
	"sort"

	"fedtrans"
)

func main() {
	for _, spread := range []float64{4, 32} {
		opts := fedtrans.DefaultOptions()
		opts.Profile = "femnist"
		opts.Clients = 36
		opts.Rounds = 70
		opts.ClientsPerRound = 9
		opts.CapacitySpread = spread

		fmt.Printf("=== capacity spread %.0fx ===\n", spread)
		session, err := fedtrans.NewSession(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("device disparity in trace: %.1fx\n", session.DeviceDisparity())
		summary := session.Run()
		fmt.Printf("mean accuracy: %.1f%%  (IQR %.1f%%)\n",
			summary.MeanAccuracy*100, summary.AccuracyIQR*100)
		fmt.Printf("suite: %d models\n", len(summary.Models))
		for i, m := range summary.Models {
			fmt.Printf("  M%-2d %-48s %8.0f MACs\n", i, m.Arch, m.MACs)
		}

		// Weakest vs strongest clients by accuracy quartile.
		accs := append([]float64(nil), summary.ClientAccuracy...)
		sort.Float64s(accs)
		q := len(accs) / 4
		lo, hi := accs[:q], accs[len(accs)-q:]
		fmt.Printf("bottom-quartile mean accuracy: %.1f%%\n", mean(lo)*100)
		fmt.Printf("top-quartile mean accuracy   : %.1f%%\n\n", mean(hi)*100)
	}
}

// mean is the arithmetic mean of xs, 0 when it is empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
