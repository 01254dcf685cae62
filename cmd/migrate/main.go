// Command migrate ports a trained selector to a new platform with
// transfer learning (Section 6): it loads a source model, collects a
// (small) label budget on the target platform, retrains with the chosen
// method, and saves the migrated model.
//
//	migrate -model xeon.gob -target a8like -method top -budget 200 -out a8.gob
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/dataset"
	"repro/internal/machine"
	"repro/internal/nn"
	"repro/internal/selector"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its exits surfaced: 0 success, 1 typed failure,
// 2 usage, 130 interrupted. Every gating failure (corrupt artifact,
// platform/format mismatch, semantic invalidity) must exit non-zero
// with the typed error spelled out — never fall back to collecting a
// fresh corpus, which would silently train on the wrong distribution.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("migrate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modelPath := fs.String("model", "model.gob", "source model file")
	target := fs.String("target", "a8like", "target platform: xeonlike, a8like, titanlike")
	method := fs.String("method", "top", "migration method: scratch, continuous, top")
	budget := fs.Int("budget", 200, "target-platform label budget (matrices)")
	dataIn := fs.String("dataset", "", "retrain on this pre-labeled target-platform corpus store (a gendata -store directory) instead of collecting -budget labels")
	maxN := fs.Int("maxn", 2048, "matrix dimension bound for the retraining corpus")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "migrated.gob", "output model file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "migrate:", err)
		return 1
	}
	src, err := selector.LoadFile(*modelPath)
	if err != nil {
		switch {
		case errors.Is(err, nn.ErrChecksum), errors.Is(err, nn.ErrTruncated):
			return fail(fmt.Errorf("%s is corrupt or truncated (%v); re-export the source model", *modelPath, err))
		case errors.Is(err, nn.ErrBadMagic), errors.Is(err, nn.ErrWrongKind):
			return fail(fmt.Errorf("%s is not a selector model file (%v)", *modelPath, err))
		case errors.Is(err, nn.ErrVersion):
			return fail(fmt.Errorf("%s was written by an incompatible version (%v)", *modelPath, err))
		default:
			return fail(err)
		}
	}
	var m selector.TransferMethod
	switch *method {
	case "scratch":
		m = selector.FromScratch
	case "continuous":
		m = selector.ContinuousEvolvement
	case "top":
		m = selector.TopEvolvement
	default:
		return fail(fmt.Errorf("unknown method %q", *method))
	}
	p, err := machine.PlatformByName(*target)
	if err != nil {
		return fail(err)
	}
	if got, want := len(p.FormatSet()), len(src.Cfg.Formats); got != want {
		return fail(fmt.Errorf("source model selects among %d formats but %s selects among %d; migrate within a platform kind",
			want, *target, got))
	}

	lab := machine.NewLabeler(p, *seed)
	var d *dataset.Dataset
	if *dataIn != "" {
		fmt.Fprintf(stdout, "loading target-platform corpus from %s\n", *dataIn)
		var store *dataset.CorpusStore
		if store, _, err = dataset.OpenValidatedStore(*dataIn, lab); err == nil {
			d, err = store.LoadStoreAll()
		}
		switch {
		case errors.Is(err, dataset.ErrStore):
			return fail(fmt.Errorf("%s is not a corpus store directory (%v); build one with gendata -store", *dataIn, err))
		case errors.Is(err, dataset.ErrCorrupt):
			return fail(fmt.Errorf("%s is corrupt beyond salvage (%v); regenerate it with gendata", *dataIn, err))
		case errors.Is(err, dataset.ErrMismatch):
			return fail(fmt.Errorf("%s was not labeled for %s (%v); migration needs target-platform labels — regenerate with gendata -platform %s", *dataIn, *target, err, *target))
		case errors.Is(err, dataset.ErrInvalid):
			return fail(fmt.Errorf("%s opens but fails semantic validation (%v); regenerate it with gendata", *dataIn, err))
		case err != nil:
			return fail(err)
		}
	} else {
		fmt.Fprintf(stdout, "collecting %d labels on %s\n", *budget, p)
		d = dataset.Generate(dataset.Config{Count: *budget, Seed: *seed, MaxN: *maxN}, lab)
	}

	migrated, err := selector.Transfer(src, m)
	if err != nil {
		return fail(err)
	}
	if m != selector.FromScratch {
		migrated.Cfg.LearningRate *= 0.4 // standard fine-tuning step size
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stdout, "retraining with %s (%d epochs)\n", m, migrated.Cfg.Epochs)
	if _, err := migrated.TrainCtx(ctx, d, nil); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(stderr, "migrate: interrupted")
			return 130
		}
		return fail(err)
	}
	metrics, err := migrated.Evaluate(d, nil)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "accuracy on the retraining corpus: %.1f%%\n", metrics.Accuracy()*100)
	if err := migrated.SaveFile(*out); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "migrated model saved to %s\n", *out)
	return 0
}
