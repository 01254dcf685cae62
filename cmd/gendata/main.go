// Command gendata builds a labelled training corpus into a corpus
// store directory — step 1 of the paper's Figure 3 pipeline as a
// standalone tool, so label collection (the expensive step on real
// hardware) can be reused across training runs. The matrices come from
// one of two sources: the synthetic generator (-count/-seed/-maxn), or
// a directory tree of MatrixMarket files such as a SuiteSparse mirror
// (-import-dir).
//
//	gendata -platform titanlike -count 2000 -store gpu.store
//	gendata -import-dir suitesparse/ -store corpus.store
//
// Label collection is the stage the paper spends weeks of machine time
// on, so gendata is built to survive anything short of a disk fire, the
// same way for both sources: every published shard is journaled against
// the position in the source walk, and a build killed at any instant
// (kill -9 included) continues with -resume, reusing the published
// shards and producing a byte-identical store. A matrix that is
// malformed, oversized, panics the reader or the labeler, or exceeds
// -matrix-timeout is quarantined (what it was and why it failed in
// <store>/quarantine/quarantine.jsonl) instead of aborting the build;
// systemic failure still aborts via the consecutive-failure breaker and
// the -max-quarantine-frac budget. A full disk aborts cleanly at a
// shard boundary for a later -resume. -resume with different flags or a
// changed source is refused, never mixed in.
//
//	gendata -count 5000 -store corpus.store          # killed...
//	gendata -count 5000 -store corpus.store -resume
//
// -metrics-addr serves live gendata_* build gauges (shards done,
// records labeled, quarantined, labels/sec) plus pprof while the build
// runs, and a one-line JSON build report is appended to
// <store>/report.jsonl on completion. Imported files go through the
// resource-governed reader (-import-max-* caps), and byte-identical
// duplicates are skipped via the store's fingerprint index.
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
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sparse"
)

func main() {
	platform := flag.String("platform", "xeonlike", "target platform: xeonlike, a8like, titanlike")
	count := flag.Int("count", 1000, "number of matrices")
	maxN := flag.Int("maxn", 2048, "matrix dimension bound")
	seed := flag.Int64("seed", 1, "random seed")
	noise := flag.Float64("noise", 0.03, "relative measurement noise sigma")
	workers := flag.Int("workers", 0, "labeling worker goroutines (0 = GOMAXPROCS)")
	resume := flag.Bool("resume", false, "continue an interrupted build of -store from the same source and flags, reusing its published shards")
	shardSize := flag.Int("shard-size", 64, "records per store shard")
	matrixTimeout := flag.Duration("matrix-timeout", 0, "per-matrix build-or-read+label deadline; exceeding it quarantines the matrix (0 = none)")
	maxQuarantine := flag.Float64("max-quarantine-frac", 0.25, "abort when more than this fraction of the matrices examined so far were quarantined (negative disables)")
	breakerThreshold := flag.Int("breaker-threshold", 16, "abort after this many consecutive per-matrix failures (negative disables)")
	metricsAddr := flag.String("metrics-addr", "", "serve live build metrics and pprof on this address while the build runs (empty disables)")
	quiet := flag.Bool("quiet", false, "suppress per-shard progress lines")
	importDir := flag.String("import-dir", "", "ingest every .mtx under this directory into -store instead of generating matrices")
	storeDir := flag.String("store", "dataset.store", "corpus store directory to write")
	importMaxRows := flag.Int("import-max-rows", 0, "per-file row cap for -import-dir (0 = service default)")
	importMaxCols := flag.Int("import-max-cols", 0, "per-file column cap for -import-dir (0 = service default)")
	importMaxNNZ := flag.Int("import-max-nnz", 0, "per-file nonzero cap for -import-dir (0 = service default)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "gendata:", err)
		os.Exit(1)
	}
	// Fire-drill hook, mirroring cmd/serve's SERVE_FAULT_INJECT: arm
	// label-panic / label-stall / store-corrupt faults from the
	// environment so the kill→resume and quarantine drills exercise the
	// real binary.
	if spec := os.Getenv("GENDATA_FAULT_INJECT"); spec != "" {
		if err := faultinject.Arm(spec); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "gendata: fault injection armed: %s\n", spec)
	}

	p, err := machine.PlatformByName(*platform)
	if err != nil {
		fail(err)
	}
	lab := machine.NewLabeler(p, *seed)
	lab.NoiseSigma = *noise

	// Ctrl-C / SIGTERM stops the build at the next matrix; published
	// shards survive for -resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := dataset.Config{
		Count: *count, Seed: *seed, MaxN: *maxN, Workers: *workers,
		ShardSize: *shardSize, Resume: *resume,
		MatrixTimeout: *matrixTimeout, MaxQuarantineFrac: *maxQuarantine,
		BreakerThreshold: *breakerThreshold,
	}
	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		obs.RuntimeGauges(reg)
		cfg.Metrics = dataset.NewBuildMetrics(reg)
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fail(err)
		}
		srv := &http.Server{
			Handler:           obs.AdminHandler(obs.AdminConfig{Registry: reg, PProf: true}),
			ReadHeaderTimeout: 10 * time.Second,
		}
		fmt.Printf("gendata: metrics on http://%s/metrics\n", ln.Addr())
		go srv.Serve(ln)
		defer srv.Close()
	}
	if !*quiet {
		start := time.Now()
		cfg.OnShard = func(done, total int) {
			fmt.Printf("gendata: shard %d/%d published (%.1fs)\n", done, total, time.Since(start).Seconds())
		}
	}

	var report *dataset.BuildReport
	if *importDir != "" {
		cfg.Limits = sparse.DefaultLimits()
		if *importMaxRows > 0 {
			cfg.Limits.MaxRows = *importMaxRows
		}
		if *importMaxCols > 0 {
			cfg.Limits.MaxCols = *importMaxCols
		}
		if *importMaxNNZ > 0 {
			cfg.Limits.MaxNNZ = *importMaxNNZ
		}
		report, err = dataset.IngestDir(ctx, *importDir, *storeDir, cfg, lab)
	} else {
		report, err = dataset.GenerateStore(ctx, *storeDir, cfg, lab)
	}
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(os.Stderr, "gendata: interrupted; published shards and journal preserved in %s (rerun with -resume to continue)\n", *storeDir)
		os.Exit(130)
	case errors.Is(err, dataset.ErrNoSpace):
		fmt.Fprintf(os.Stderr, "gendata: %v\nstore left consistent at the last published shard; free space and rerun with -resume\n", err)
		os.Exit(1)
	case errors.Is(err, dataset.ErrBreakerTripped):
		fail(fmt.Errorf("labeling is failing consecutively, aborting (%v); see %s/quarantine/quarantine.jsonl", err, *storeDir))
	case errors.Is(err, dataset.ErrTooManyQuarantined):
		fail(fmt.Errorf("quarantine budget exceeded, aborting (%v); see %s/quarantine/quarantine.jsonl", err, *storeDir))
	case err != nil:
		fail(err)
	}

	fmt.Printf("gendata: %s\n", report)
	fmt.Printf("labelled %d matrices on %s into %s\n", report.Records, p, *storeDir)
	if n := len(report.Quarantined); n > 0 {
		fmt.Printf("quarantined %d matrices; see %s/quarantine/quarantine.jsonl\n", n, *storeDir)
	}
}
