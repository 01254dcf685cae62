// Command train builds a CNN format selector for a platform — the
// equivalent of the paper artifact's `spmv_model.py train` mode. It
// generates and labels a corpus (or streams a pre-built corpus store,
// -dataset-in), trains the selector, reports held-out metrics, and
// saves the model (and, with -dataset, the generated corpus as a
// store).
//
// With -checkpoint-dir the run snapshots training state periodically;
// an interrupted run (crash, Ctrl-C, SIGTERM) can then be continued
// from where it left off:
//
//	train -platform xeonlike -count 800 -epochs 40 -out model.gob
//	train -checkpoint-dir ckpt -epochs 40 -out model.gob   # interrupted...
//	train -checkpoint-dir ckpt -epochs 40 -out model.gob -resume
//
// Telemetry: -telemetry appends one JSON object per epoch (loss,
// training accuracy, gradient norm, learning rate, divergence
// retries, epoch and checkpoint wall-clock) to a JSONL file, and
// -metrics-addr serves the same statistics live as train_* gauges
// plus pprof, so a long run can be scraped or profiled mid-flight:
//
//	train -count 800 -epochs 40 -out model.gob \
//	    -telemetry train.jsonl -metrics-addr 127.0.0.1:6061
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dtree"
	"repro/internal/features"
	"repro/internal/machine"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/represent"
	"repro/internal/sparse"
	"repro/internal/spmv"
)

func main() {
	platform := flag.String("platform", "xeonlike", "target platform: xeonlike, a8like, titanlike")
	count := flag.Int("count", 600, "number of training matrices")
	maxN := flag.Int("maxn", 2048, "matrix dimension bound")
	epochs := flag.Int("epochs", 40, "training epochs")
	rep := flag.String("rep", "histogram", "representation: binary, density, histogram")
	repSize := flag.Int("repsize", 32, "representation size")
	repBins := flag.Int("repbins", 16, "histogram bins")
	seed := flag.Int64("seed", 1, "random seed")
	wall := flag.Bool("wallclock", false, "label with real kernel timings instead of the platform model")
	out := flag.String("out", "model.gob", "output model file")
	dataIn := flag.String("dataset-in", "", "train on this pre-labeled corpus store (a gendata -store directory) instead of generating one; it must match -platform")
	dataOut := flag.String("dataset", "", "optional directory to write the generated corpus to, as a corpus store")
	dtreeOut := flag.String("dtree-out", "", "optional decision-tree baseline artifact, trained on the same split (for serve -dtree)")
	ckptDir := flag.String("checkpoint-dir", "", "directory for periodic training checkpoints")
	ckptEvery := flag.Int("checkpoint-every", 5, "checkpoint period in epochs")
	resume := flag.Bool("resume", false, "continue from the newest checkpoint in -checkpoint-dir")
	telemetryPath := flag.String("telemetry", "", "per-epoch JSONL telemetry file (loss, accuracy, grad norm, timings; empty disables)")
	metricsAddr := flag.String("metrics-addr", "", "serve live training metrics and pprof on this address while the run is active (empty disables)")
	spmvTable := flag.String("spmv-table", "", "autotuned SpMV dispatch table JSON for -wallclock labeling kernels (empty keeps built-in defaults)")
	flag.Parse()

	if *spmvTable != "" {
		// -wallclock labels run the real SpMV kernels; a tuned dispatch
		// table makes those labels reflect the kernels production serves.
		tab, err := spmv.LoadTableFile(*spmvTable)
		if err != nil {
			fmt.Fprintln(os.Stderr, "train: spmv table ignored:", err)
		} else {
			spmv.Install(tab)
		}
	}

	var kind represent.Kind
	switch *rep {
	case "binary":
		kind = represent.KindBinary
	case "density":
		kind = represent.KindBinaryDensity
	case "histogram":
		kind = represent.KindHistogram
	default:
		fmt.Fprintf(os.Stderr, "train: unknown representation %q\n", *rep)
		os.Exit(2)
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "train: -resume requires -checkpoint-dir")
		os.Exit(2)
	}

	// Ctrl-C / SIGTERM cancels the run at the next epoch boundary; the
	// trainer flushes a final checkpoint before returning.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Training telemetry: per-epoch JSONL (when -telemetry names a file)
	// and a live metrics registry, optionally scrapeable over HTTP while
	// the run is active (-metrics-addr). Both feed off the same epoch
	// hook, so a headless run costs nothing.
	var epochHook func(nn.EpochStats)
	if *telemetryPath != "" || *metricsAddr != "" {
		var sink io.Writer
		if *telemetryPath != "" {
			f, err := os.Create(*telemetryPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "train: telemetry:", err)
				os.Exit(1)
			}
			defer f.Close()
			sink = f
		}
		reg := obs.NewRegistry()
		obs.RuntimeGauges(reg)
		tel := obs.NewTrainingTelemetry(reg, sink)
		epochHook = func(st nn.EpochStats) {
			tel.OnEpoch(obs.EpochEvent{
				Epoch:             st.Epoch,
				Loss:              st.Loss,
				Accuracy:          st.Accuracy,
				GradNorm:          st.GradNorm,
				LR:                st.LR,
				Retries:           st.Retries,
				EpochSeconds:      st.Duration.Seconds(),
				Checkpointed:      st.Checkpointed,
				CheckpointSeconds: st.CheckpointDuration.Seconds(),
			})
		}
		if *metricsAddr != "" {
			ln, err := net.Listen("tcp", *metricsAddr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "train: metrics listener:", err)
				os.Exit(1)
			}
			srv := &http.Server{
				Handler:           obs.AdminHandler(obs.AdminConfig{Registry: reg, PProf: true}),
				ReadHeaderTimeout: 10 * time.Second,
			}
			fmt.Printf("train: metrics on http://%s/metrics\n", ln.Addr())
			go srv.Serve(ln)
			defer srv.Close()
		}
	}

	res, err := core.TrainCtx(ctx, core.Options{
		Platform: *platform, Count: *count, MaxN: *maxN,
		Representation: kind, RepSize: *repSize, RepBins: *repBins,
		Epochs: *epochs, Seed: *seed, WallClock: *wall, Log: os.Stdout,
		DatasetPath:   *dataIn,
		CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery, Resume: *resume,
		EpochHook: epochHook,
	})
	switch {
	case errors.Is(err, dataset.ErrStore):
		fmt.Fprintf(os.Stderr, "train: %s is not a corpus store directory (%v); build one with gendata -store\n", *dataIn, err)
		os.Exit(1)
	case errors.Is(err, dataset.ErrCorrupt):
		fmt.Fprintf(os.Stderr, "train: %s is corrupt beyond salvage (%v); regenerate it with gendata\n", *dataIn, err)
		os.Exit(1)
	case errors.Is(err, dataset.ErrMismatch):
		fmt.Fprintf(os.Stderr, "train: %s was labeled for a different platform or format set (%v); labels are architecture-dependent — regenerate with gendata -platform %s or change -platform\n", *dataIn, err, *platform)
		os.Exit(1)
	case errors.Is(err, dataset.ErrInvalid):
		fmt.Fprintf(os.Stderr, "train: %s opens but fails semantic validation (%v); this is a corpus-builder bug, please report it\n", *dataIn, err)
		os.Exit(1)
	}
	if errors.Is(err, context.Canceled) {
		if *ckptDir != "" {
			fmt.Fprintf(os.Stderr, "train: interrupted; checkpoint flushed to %s (rerun with -resume to continue)\n", *ckptDir)
		} else {
			fmt.Fprintln(os.Stderr, "train: interrupted (no -checkpoint-dir, progress lost)")
		}
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}
	if res.Metrics != nil {
		fmt.Println(res.Metrics)
	}
	if err := res.Selector.SaveFile(*out); err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}
	fmt.Printf("model saved to %s\n", *out)
	if *dataOut != "" {
		if res.Dataset == nil {
			fmt.Fprintf(os.Stderr, "train: -dataset is not applicable when training from store %s (the store is already persistent)\n", *dataIn)
			os.Exit(1)
		}
		if _, err := dataset.WriteStore(*dataOut, res.Dataset, 0); err != nil {
			fmt.Fprintln(os.Stderr, "train:", err)
			os.Exit(1)
		}
		fmt.Printf("dataset stored to %s\n", *dataOut)
	}
	if *dtreeOut != "" {
		// The serving ladder's middle rung: the SMAT-style tree fitted on
		// the same corpus, packaged as a checksummed artifact. On the
		// in-memory path it uses the training split; on the store path it
		// streams features shard by shard (features are scalar vectors, so
		// the whole feature table fits even when the matrices would not).
		var (
			X       [][]float64
			y       []int
			formats []sparse.Format
		)
		if d := res.Dataset; d != nil {
			formats = d.Formats
			for _, i := range res.Train {
				r := d.Records[i]
				X = append(X, features.BaselineFromStats(r.Stats))
				y = append(y, d.ClassIndex(r.Label))
			}
		} else {
			X, y, formats, err = streamDtreeFeatures(*dataIn, *platform, *seed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "train: dtree:", err)
				os.Exit(1)
			}
		}
		dt, err := dtree.FitBaseline(X, y, formats, dtree.DefaultConfig())
		if err != nil {
			fmt.Fprintln(os.Stderr, "train: dtree:", err)
			os.Exit(1)
		}
		if err := dt.SaveFile(*dtreeOut); err != nil {
			fmt.Fprintln(os.Stderr, "train: dtree:", err)
			os.Exit(1)
		}
		fmt.Printf("decision-tree baseline saved to %s\n", *dtreeOut)
	}
}

// streamDtreeFeatures extracts the baseline feature table from a
// corpus store one shard at a time, over the same training shards the
// CNN saw (held-out shards are excluded so both models share a split).
func streamDtreeFeatures(storePath, platform string, seed int64) ([][]float64, []int, []sparse.Format, error) {
	p, err := machine.PlatformByName(platform)
	if err != nil {
		return nil, nil, nil, err
	}
	store, _, err := dataset.OpenValidatedStore(storePath, machine.NewLabeler(p, seed))
	if err != nil {
		return nil, nil, nil, err
	}
	trainShards, _ := core.SplitShards(store.NumShards(), 0.2, seed+7)
	var (
		X [][]float64
		y []int
	)
	for _, si := range trainShards {
		d, err := store.Shard(si)
		if err != nil {
			return nil, nil, nil, err
		}
		for _, r := range d.Records {
			X = append(X, features.BaselineFromStats(r.Stats))
			y = append(y, d.ClassIndex(r.Label))
		}
	}
	return X, y, store.Formats(), nil
}
