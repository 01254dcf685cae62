// Command shepherd closes the serve→retrain→redeploy loop. It watches
// a serving replica's feedback log, folds rotated segments into an
// online corpus, monitors the prediction stream for distribution
// drift, and — on sustained drift — retrains the selector head by
// top-evolvement transfer, scores the candidate as a shadow model on
// live traffic, and promotes it through the server's probe-validated
// hot reload. Every state transition is journaled, so a restarted
// shepherd resumes exactly where it stopped.
//
//	shepherd -work /var/lib/shepherd -model model.gob \
//	  -admin http://127.0.0.1:9090 -feedback-dir /var/log/feedback \
//	  -train-dataset corpus.store
//
// The state machine: observing (collect + drift-monitor) → retraining
// (bounded top-evolvement transfer off the live model, checkpointed
// and resumable) → shadowing (candidate mirrors sampled traffic,
// metrics only) → promoting (atomic artifact swap; the server's
// watcher validates and hot-reloads it) → observing. A candidate that
// fails validation or the promotion gate is rejected and the live
// model keeps serving.
//
// -metrics-addr exposes the shepherd's own instrument set
// (feedback_drift_*, feedback_shepherd_*, feedback_collect_*) for
// scraping. SHEPHERD_FAULT_INJECT arms chaos points for drills, e.g.
// SHEPHERD_FAULT_INJECT="shepherd.candidate.corrupt" to exercise the
// rejection path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/feedback"
	"repro/internal/machine"
	"repro/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("shepherd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	work := fs.String("work", "shepherd-work", "work directory: journal, checkpoints, candidate, scorecard")
	model := fs.String("model", "model.gob", "live model artifact the serving tier watches (promotion swaps it)")
	admin := fs.String("admin", "", "serving tier admin base URL (shadow control + metrics), e.g. http://127.0.0.1:9090")
	feedbackDir := fs.String("feedback-dir", "", "the serving tier's feedback log directory (rotated segments are folded from here)")
	corpus := fs.String("corpus", "", "online corpus store directory (default <work>/corpus.store)")
	trainDataset := fs.String("train-dataset", "", "corpus store the live model was fitted on — its profile is the drift baseline")
	platform := fs.String("platform", "xeonlike", "cost-model platform for labeling folded patterns (must match the training corpus)")
	seed := fs.Int64("seed", 1, "labeling seed")
	maxRecords := fs.Int("max-records", 4096, "online corpus cap (oldest evicted)")
	interval := fs.Duration("interval", 2*time.Second, "supervision period")
	window := fs.Int("window", 48, "drift evaluation window (entries)")
	mixThreshold := fs.Float64("mix-threshold", 0.35, "prediction-mix total-variation distance that votes drifted")
	featureThreshold := fs.Float64("feature-threshold", 1.5, "feature mean-shift (training-SD units) that votes drifted")
	rungThreshold := fs.Float64("rung-threshold", 0.25, "non-CNN rung fraction that votes drifted")
	tripAfter := fs.Int("trip-after", 3, "consecutive drifted windows before the detector fires")
	clearAfter := fs.Int("clear-after", 3, "consecutive clean windows before a fired detector clears")
	minRecords := fs.Int("min-records", 64, "online corpus records required before a retrain starts")
	retrainEpochs := fs.Int("retrain-epochs", 4, "top-evolvement retrain epoch budget")
	shadowMinSamples := fs.Int("shadow-min-samples", 32, "mirrored predictions required before the promotion gate is judged")
	promoteMinAgree := fs.Float64("promote-min-agree", 0, "minimum live/shadow agreement rate (0 = report only: drift means disagreement is expected)")
	promoteTimeout := fs.Duration("promote-timeout", 30*time.Second, "how long promotion waits for the server to hot-reload the swapped artifact")
	metricsAddr := fs.String("metrics-addr", "", "listen address for the shepherd's own /metrics (empty disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *admin == "" || *feedbackDir == "" || *trainDataset == "" {
		fmt.Fprintln(stderr, "shepherd: -admin, -feedback-dir and -train-dataset are required")
		return 2
	}
	if *corpus == "" {
		*corpus = filepath.Join(*work, "corpus.store")
	}

	if spec := os.Getenv("SHEPHERD_FAULT_INJECT"); spec != "" {
		if err := faultinject.Arm(spec); err != nil {
			fmt.Fprintln(stderr, "shepherd: SHEPHERD_FAULT_INJECT:", err)
			return 2
		}
		fmt.Fprintf(stderr, "shepherd: fault injection armed: %s\n", spec)
	}

	p, err := machine.PlatformByName(*platform)
	if err != nil {
		fmt.Fprintln(stderr, "shepherd:", err)
		return 2
	}
	lab := machine.NewLabeler(p, *seed)

	// The drift baseline: the corpus the live model was trained on,
	// validated against the same platform cost model used for folding,
	// so online labels and the reference profile are consistent.
	var train *dataset.Dataset
	store, _, err := dataset.OpenValidatedStore(*trainDataset, lab)
	if err == nil {
		train, err = store.LoadStoreAll()
	}
	if err != nil {
		fmt.Fprintln(stderr, "shepherd: train dataset:", err)
		return 1
	}
	profile := feedback.NewProfile(train)
	fmt.Fprintf(stderr, "shepherd: drift baseline from %s (%d records, platform %s)\n",
		*trainDataset, profile.Count, profile.Platform)

	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "shepherd:", err)
		return 1
	}

	reg := obs.NewRegistry()
	collector, err := feedback.NewCollector(feedback.CollectorConfig{
		SegmentDir: *feedbackDir,
		CorpusPath: *corpus,
		Labeler:    lab,
		MaxRecords: *maxRecords,
		Log:        stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "shepherd:", err)
		return 1
	}
	detector := feedback.NewDetector(profile, feedback.DetectorConfig{
		Window:           *window,
		MixThreshold:     *mixThreshold,
		FeatureThreshold: *featureThreshold,
		RungThreshold:    *rungThreshold,
		TripAfter:        *tripAfter,
		ClearAfter:       *clearAfter,
		Registry:         reg,
	})
	shep, err := feedback.NewShepherd(feedback.ShepherdConfig{
		WorkDir:           *work,
		ModelPath:         *model,
		AdminURL:          *admin,
		Collector:         collector,
		Detector:          detector,
		Interval:          *interval,
		MinRetrainRecords: *minRecords,
		RetrainEpochs:     *retrainEpochs,
		ShadowMinSamples:  *shadowMinSamples,
		PromoteMinAgree:   *promoteMinAgree,
		PromoteTimeout:    *promoteTimeout,
		Registry:          reg,
		Log:               stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "shepherd:", err)
		return 1
	}

	// The shepherd's own metrics listener: drift state, corpus size and
	// the state machine's transition counters, scrapeable next to the
	// serving tier's.
	var metricsSrv *http.Server
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(stderr, "shepherd: metrics listener:", err)
			return 1
		}
		metricsSrv = &http.Server{
			Handler:           obs.AdminHandler(obs.AdminConfig{Registry: reg}),
			ReadHeaderTimeout: 10 * time.Second,
		}
		// Stdout so scripts can scrape the bound address under :0.
		fmt.Fprintf(stdout, "shepherd: metrics listening on http://%s\n", ln.Addr())
		go func() {
			if err := metricsSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(stderr, "shepherd: metrics:", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stdout, "shepherd: supervising %s via %s\n", *model, *admin)
	err = shep.Run(ctx)
	if metricsSrv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		metricsSrv.Shutdown(sctx)
		cancel()
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(stderr, "shepherd:", err)
		return 1
	}
	fmt.Fprintln(stderr, "shepherd: stopped")
	return 0
}
