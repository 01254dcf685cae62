// Migrate: cross-architecture model migration with transfer learning
// (Section 6). A selector trained for the Intel-like platform is ported
// to the AMD-like platform three ways — from scratch, continuous
// evolvement, top evolvement — using only a small target-platform label
// budget, and the resulting accuracies are compared (Figure 9 in
// miniature).
//
//	go run ./examples/migrate
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/represent"
	"repro/internal/selector"
)

func main() {
	// Source platform model (expensive, done once).
	fmt.Println("== training source model on xeonlike ==")
	src, err := core.Train(core.Options{
		Platform: "xeonlike", Count: 500, MaxN: 1024,
		Representation: represent.KindHistogram, RepSize: 16, RepBins: 8,
		Epochs: 25, Seed: 5, Log: os.Stdout,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Target platform: relabel the same matrices with the AMD-like
	// machine model (in production this is the expensive SpMV timing
	// campaign transfer learning seeks to shrink).
	target := src.Dataset.Relabel(machine.NewLabeler(machine.A8Like(), 5))
	differ := 0
	for i := range target.Records {
		if target.Records[i].Label != src.Dataset.Records[i].Label {
			differ++
		}
	}
	fmt.Printf("\nlabels differ on %d of %d matrices between platforms\n", differ, len(target.Records))

	trainIdx, testIdx := target.Split(0.3, 17)
	budget := 120 // small target-platform label budget
	if budget > len(trainIdx) {
		budget = len(trainIdx)
	}
	small := trainIdx[:budget]

	trainSamples, err := src.Selector.Samples(target, small)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("retraining budget: %d target-platform labels\n\n", budget)
	for _, method := range selector.TransferMethods() {
		migrated, err := selector.Transfer(src.Selector, method)
		if err != nil {
			log.Fatal(err)
		}
		if method != selector.FromScratch {
			migrated.Cfg.LearningRate *= 0.4
		}
		if _, err := migrated.TrainSamples(trainSamples); err != nil {
			log.Fatal(err)
		}
		m, err := migrated.Evaluate(target, testIdx)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s accuracy on a8like: %.1f%%\n", method, m.Accuracy()*100)
	}
}
