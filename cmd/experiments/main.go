// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run all
//	experiments -run table2,fig9 -count 1200 -epochs 45
//
// Experiments: platforms, table2, table3, fig8, fig9, fig10, fig11,
// speedups, overhead, all. Output is plain text on stdout in the shape
// of the paper's tables.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/machine"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiments: platforms,table2,table3,fig8,fig9,fig10,fig11,speedups,overhead,sensitivity,labelmodes,heldout,all")
	quick := flag.Bool("quick", false, "use the quick (test-scale) options")
	count := flag.Int("count", 0, "override dataset size")
	maxN := flag.Int("maxn", 0, "override matrix dimension bound")
	folds := flag.Int("folds", 0, "override CV folds")
	epochs := flag.Int("epochs", 0, "override CNN epochs")
	repSize := flag.Int("repsize", 0, "override representation size")
	repBins := flag.Int("repbins", 0, "override histogram bins")
	seed := flag.Int64("seed", 0, "override seed")
	wallclock := flag.Bool("wallclock", false, "label the CPU corpus with real kernel timings (table2/fig8)")
	dataIn := flag.String("dataset", "", "reuse this pre-labeled xeonlike corpus store (a gendata -store directory) for the CPU experiments instead of generating one; -run heldout evaluates its held-out shards")
	model := flag.String("model", "", "trained selector artifact for -run heldout")
	reportPath := flag.String("report", "", "write the heldout JSON report here (default stdout)")
	platform := flag.String("platform", "xeonlike", "platform for -run heldout")
	flag.Parse()

	o := experiments.Default()
	if *quick {
		o = experiments.Quick()
	}
	if *count > 0 {
		o.Count = *count
	}
	if *maxN > 0 {
		o.MaxN = *maxN
	}
	if *folds > 0 {
		o.Folds = *folds
	}
	if *epochs > 0 {
		o.Epochs = *epochs
	}
	if *repSize > 0 {
		o.RepSize = *repSize
	}
	if *repBins > 0 {
		o.RepBins = *repBins
	}
	if *seed != 0 {
		o.Seed = *seed
	}
	o.WallClock = *wallclock
	want := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		want[strings.TrimSpace(strings.ToLower(name))] = true
	}

	if want["heldout"] { // not in "all": needs -dataset (a store) and -model
		if *dataIn == "" || *model == "" {
			fmt.Fprintln(os.Stderr, "experiments: -run heldout requires -dataset (a corpus store directory) and -model")
			os.Exit(2)
		}
		rep, err := experiments.RunHeldout(experiments.HeldoutOptions{
			StorePath: *dataIn, ModelPath: *model, Platform: *platform, Seed: o.Seed,
		}, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		out := os.Stdout
		if *reportPath != "" {
			f, err := os.Create(*reportPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := rep.WriteJSON(out); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		if *reportPath != "" {
			fmt.Printf("heldout report written to %s\n", *reportPath)
		}
		return
	}

	if *dataIn != "" {
		// The CPU experiments reuse one pre-labeled corpus store, loaded
		// whole (cross-validation needs every record resident); the typed
		// errors distinguish damage (regenerate) from platform mismatch
		// (wrong artifact) from semantic breakage (bug).
		lab := machine.NewLabeler(machine.XeonLike(), o.Seed)
		var d *dataset.Dataset
		store, _, err := dataset.OpenValidatedStore(*dataIn, lab)
		if err == nil {
			d, err = store.LoadStoreAll()
		}
		switch {
		case errors.Is(err, dataset.ErrStore):
			fmt.Fprintf(os.Stderr, "experiments: %s is not a corpus store directory (%v); build one with gendata -store\n", *dataIn, err)
			os.Exit(1)
		case errors.Is(err, dataset.ErrCorrupt):
			fmt.Fprintf(os.Stderr, "experiments: %s is corrupt beyond salvage (%v); regenerate it with gendata\n", *dataIn, err)
			os.Exit(1)
		case errors.Is(err, dataset.ErrMismatch):
			fmt.Fprintf(os.Stderr, "experiments: %s does not match the xeonlike CPU platform (%v); regenerate with gendata -platform xeonlike\n", *dataIn, err)
			os.Exit(1)
		case errors.Is(err, dataset.ErrInvalid):
			fmt.Fprintf(os.Stderr, "experiments: %s opens but fails semantic validation (%v); regenerate it with gendata\n", *dataIn, err)
			os.Exit(1)
		case err != nil:
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		o.CPUData = d
		if o.Count != len(d.Records) {
			fmt.Fprintf(os.Stderr, "experiments: using %d records from %s (overriding -count %d)\n", len(d.Records), *dataIn, o.Count)
			o.Count = len(d.Records)
		}
	}

	all := want["all"]
	ran := 0
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	sep := func() { fmt.Println(strings.Repeat("-", 64)) }

	if all || want["platforms"] {
		experiments.RunPlatforms(os.Stdout)
		sep()
		ran++
	}
	if all || want["table2"] {
		if _, err := experiments.RunTable2(o, os.Stdout); err != nil {
			fail(err)
		}
		sep()
		ran++
	}
	if all || want["table3"] {
		if _, err := experiments.RunTable3(o, os.Stdout); err != nil {
			fail(err)
		}
		sep()
		ran++
	}
	if all || want["fig8"] {
		if _, err := experiments.RunFig8(o, os.Stdout); err != nil {
			fail(err)
		}
		sep()
		ran++
	}
	if all || want["speedups"] {
		if _, _, err := experiments.RunSpeedupsGPU(o, os.Stdout); err != nil {
			fail(err)
		}
		sep()
		ran++
	}
	if all || want["fig9"] {
		if _, err := experiments.RunFig9(o, os.Stdout); err != nil {
			fail(err)
		}
		sep()
		ran++
	}
	if all || want["fig10"] {
		if err := experiments.RunFig10(os.Stdout); err != nil {
			fail(err)
		}
		sep()
		ran++
	}
	if all || want["fig11"] {
		if _, err := experiments.RunFig11(o, os.Stdout); err != nil {
			fail(err)
		}
		sep()
		ran++
	}
	if all || want["overhead"] {
		if _, err := experiments.RunOverhead(o, os.Stdout); err != nil {
			fail(err)
		}
		sep()
		ran++
	}
	if want["sensitivity"] { // not in "all": trains four extra CNNs
		if _, err := experiments.RunSensitivity(o, os.Stdout); err != nil {
			fail(err)
		}
		sep()
		ran++
	}
	if want["labelmodes"] { // not in "all": wall-clock timing pass
		if err := experiments.RunLabelModes(o, os.Stdout); err != nil {
			fail(err)
		}
		sep()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: nothing matched -run %q\n", *run)
		flag.Usage()
		os.Exit(2)
	}
}
