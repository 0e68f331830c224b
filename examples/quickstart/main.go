// Quickstart: train Contender on the bundled TPC-DS workload and predict
// the concurrent latency of a few query mixes, comparing each prediction
// against the simulated ground truth.
package main

import (
	"fmt"
	"log"

	"contender"
)

func main() {
	// Build the workbench: this profiles all 25 templates in isolation and
	// under the spoiler, and samples concurrent mixes — the paper's whole
	// training-data collection, in seconds.
	wb, err := contender.NewWorkbench(contender.QuickSampling())
	if err != nil {
		log.Fatal(err)
	}
	pred, err := wb.Train()
	if err != nil {
		log.Fatal(err)
	}

	mixes := [][]int{
		{71, 2},  // an I/O-bound query with the memory hog
		{26, 62}, // two light queries sharing I/O
		{22, 82}, // both scan the inventory fact table: positive interaction
	}
	fmt.Println("primary  mix        CQI     predicted   simulated   error")
	for _, mix := range mixes {
		primary, concurrent := mix[0], mix[1:]
		estimate, err := pred.PredictKnown(primary, concurrent)
		if err != nil {
			log.Fatal(err)
		}
		cqi, err := pred.CQI(primary, concurrent)
		if err != nil {
			log.Fatal(err)
		}
		truth, err := wb.Simulate(mix)
		if err != nil {
			log.Fatal(err)
		}
		relErr := 100 * abs(truth[0]-estimate) / truth[0]
		fmt.Printf("T%-6d  %-9s  %.3f  %8.1f s  %8.1f s  %5.1f%%\n",
			primary, fmt.Sprint(concurrent), cqi, estimate, truth[0], relErr)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
