package experiments

import (
	"fmt"
	"io"

	"repro/internal/machine"
	"repro/internal/represent"
	"repro/internal/selector"
)

// Fig9Result holds the transfer-learning study of Section 6 / Figure 9:
// accuracy on the target platform (AMD-like) as a function of the
// target-platform retraining-set size, for each migration method.
type Fig9Result struct {
	Sizes    []int
	Methods  []selector.TransferMethod
	Accuracy [][]float64 // [method][size index]
}

// RunFig9 reproduces Figure 9: train a CNN+Histogram selector on the
// Intel-like platform, then migrate it to the AMD-like platform with
// each method, retraining on increasing amounts of target-platform
// labels and evaluating on a held-out target test set.
func RunFig9(o Options, w io.Writer) (*Fig9Result, error) {
	src := o.cpuDataset()
	dst := src.Relabel(machine.NewLabeler(machine.A8Like(), o.Seed+31))

	// Source model, trained on the full source platform corpus.
	cfg := o.cnnConfig(represent.KindHistogram, src.Formats)
	srcSel, err := selector.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := srcSel.Train(src, nil); err != nil {
		return nil, err
	}

	trainIdx, testIdx := dst.Split(0.25, o.Seed+37)

	res := &Fig9Result{Methods: selector.TransferMethods()}
	for _, size := range o.RetrainSizes {
		if size <= len(trainIdx) {
			res.Sizes = append(res.Sizes, size)
		}
	}
	res.Accuracy = make([][]float64, len(res.Methods))

	// Pre-build the target-platform training samples once.
	trainSamples, err := srcSel.Samples(dst, trainIdx)
	if err != nil {
		return nil, err
	}

	for mi, method := range res.Methods {
		for _, size := range res.Sizes {
			migrated, err := selector.Transfer(srcSel, method)
			if err != nil {
				return nil, err
			}
			if method != selector.FromScratch {
				// Standard fine-tuning practice: a reduced step size
				// protects the inherited features from being destroyed
				// by the first noisy minibatches of the small
				// target-platform set.
				migrated.Cfg.LearningRate *= 0.4
			}
			if size > 0 {
				if _, err := migrated.TrainSamples(trainSamples[:size]); err != nil {
					return nil, err
				}
			}
			m, err := migrated.Evaluate(dst, testIdx)
			if err != nil {
				return nil, err
			}
			res.Accuracy[mi] = append(res.Accuracy[mi], m.Accuracy())
		}
	}

	if w != nil {
		fmt.Fprintf(w, "Figure 9: model migration xeonlike -> a8like (accuracy on target test set)\n")
		fmt.Fprintf(w, "%-24s", "retraining size:")
		for _, s := range res.Sizes {
			fmt.Fprintf(w, "%8d", s)
		}
		fmt.Fprintln(w)
		for mi, method := range res.Methods {
			fmt.Fprintf(w, "%-24s", method.String()+":")
			for _, a := range res.Accuracy[mi] {
				fmt.Fprintf(w, "%8.2f", a)
			}
			fmt.Fprintln(w)
		}
	}
	return res, nil
}
