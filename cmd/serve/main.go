// Command serve runs the online format-selection service: a
// long-running HTTP server that answers POST /v1/predict with the
// trained CNN's format choice for a posted sparse matrix.
//
//	serve -model model.gob -addr 127.0.0.1:8080
//
// Endpoints: POST /v1/predict (JSON COO triplets or a raw Matrix
// Market body), GET /healthz, GET /readyz, GET /metrics (Prometheus
// text format).
//
// Observability: every predict response carries an X-Trace-Id header;
// ?trace=1 returns the per-stage span breakdown in the body.
// -admin-addr starts a second listener with the operational surfaces —
// GET /metrics, GET /debug/traces (recent request traces) and the
// net/http/pprof profiles under GET /debug/pprof/ — kept off the
// client-facing port.
//
// Operations: SIGHUP hot-reloads the model file, as does overwriting
// it in place when -watch is enabled (the default; the new artifact is
// validated before the swap, so a corrupt file is rejected and the old
// model keeps serving). SIGINT/SIGTERM drain gracefully: readiness
// flips to 503, in-flight requests finish within -drain-timeout, and a
// final metrics snapshot is logged.
//
// Request path: a cache miss is one job on one bounded queue (-queue)
// feeding -workers pool workers, answered by the compiled float32
// forward pass.
//
// Robustness: ingestion is resource-governed (-max-rows, -max-cols,
// -max-nnz, -max-body bound what one request may cost; violations
// answer 413), overload is shed from the queue with 429 +
// Retry-After, and a circuit breaker (-breaker-threshold,
// -breaker-cooldown) degrades a sick CNN onto the decision-tree rung
// (-dtree, or a built-in heuristic) and recovers it via half-open
// probes. SERVE_FAULT_INJECT arms chaos points for drills, e.g.
// SERVE_FAULT_INJECT="serve.predict.panic:3".
//
// Continual learning: -feedback-dir captures every answered prediction
// into a crash-safe JSONL feedback log (size/age-rotated segments that
// cmd/shepherd folds into an online corpus). Predict requests may
// report a measured SpMV time via a "spmv_seconds" JSON field; absent
// that, the entry carries the machine cost model's estimate for the
// served format. The admin listener additionally exposes the
// shadow-deployment surface (POST /shadow/load, POST /shadow/clear,
// GET /shadow/scorecard): a loaded shadow model mirrors every
// -shadow-sample'th prediction for scoring without ever touching a
// response.
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

	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/sparse"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	adminAddr := flag.String("admin-addr", "", "admin listen address for /metrics, /debug/pprof/ and /debug/traces (empty disables)")
	model := flag.String("model", "model.gob", "trained model file (selector envelope)")
	workers := flag.Int("workers", 0, "prediction worker pool size (0 = GOMAXPROCS)")
	cacheSize := flag.Int("cache", 1024, "prediction cache entries (0 disables)")
	watch := flag.Duration("watch", 2*time.Second, "model file watch interval (0 disables hot-reload watching)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline")
	maxRows := flag.Int("max-rows", 4<<20, "largest accepted row count per matrix (413 beyond)")
	maxCols := flag.Int("max-cols", 4<<20, "largest accepted column count per matrix (413 beyond)")
	maxNNZ := flag.Int("max-nnz", 16<<20, "largest accepted nonzero count per matrix (413 beyond)")
	maxBody := flag.Int64("max-body", 32<<20, "largest accepted request body in bytes (413 beyond)")
	queue := flag.Int("queue", 0, "prediction queue depth before shedding 429s (0 = 64*workers)")
	sloTarget := flag.Duration("slo-target-p99", 0, "p99 latency SLO enabling adaptive admission, brownout and drain-rate Retry-After (0 disables)")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive CNN failures before degrading to the decision tree")
	breakerCooldown := flag.Duration("breaker-cooldown", 15*time.Second, "wait before a half-open probe retries the CNN")
	predictTimeout := flag.Duration("predict-timeout", 2*time.Second, "per-inference CNN deadline before degrading")
	requestTimeout := flag.Duration("request-timeout", 15*time.Second, "end-to-end deadline budget per request")
	dtreePath := flag.String("dtree", "", "trained decision-tree artifact for the degraded rung (empty = built-in heuristic)")
	feedbackDir := flag.String("feedback-dir", "", "directory for the crash-safe feedback log (empty disables capture)")
	feedbackSegBytes := flag.Int64("feedback-segment-bytes", 1<<20, "feedback log segment size before rotation")
	feedbackSegAge := flag.Duration("feedback-segment-age", 30*time.Second, "feedback log segment age before rotation")
	shadowSample := flag.Int("shadow-sample", 8, "mirror every Nth prediction through a loaded shadow model (0 disables)")
	flag.Parse()

	if spec := os.Getenv("SERVE_FAULT_INJECT"); spec != "" {
		if err := faultinject.Arm(spec); err != nil {
			fmt.Fprintln(os.Stderr, "serve: SERVE_FAULT_INJECT:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "serve: fault injection armed: %s\n", spec)
	}

	limits := sparse.DefaultLimits()
	limits.MaxRows, limits.MaxCols, limits.MaxNNZ = *maxRows, *maxCols, *maxNNZ

	s, err := serve.New(serve.Config{
		ModelPath:               *model,
		Workers:                 *workers,
		QueueDepth:              *queue,
		CacheSize:               *cacheSize,
		MaxBodyBytes:            *maxBody,
		Limits:                  limits,
		RequestTimeout:          *requestTimeout,
		SLOTargetP99:            *sloTarget,
		PredictTimeout:          *predictTimeout,
		BreakerThreshold:        *breakerThreshold,
		BreakerCooldown:         *breakerCooldown,
		DTreePath:               *dtreePath,
		FeedbackDir:             *feedbackDir,
		FeedbackMaxSegmentBytes: *feedbackSegBytes,
		FeedbackMaxSegmentAge:   *feedbackSegAge,
		ShadowSampleN:           *shadowSample,
		Log:                     os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *watch > 0 {
		go s.WatchModel(ctx, *watch)
	}

	// The admin listener is a second, separately bound server: metrics
	// scrapes, pprof profiles and trace dumps never contend with (or
	// leak onto) the traffic port.
	var adminSrv *http.Server
	if *adminAddr != "" {
		aln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve: admin listener:", err)
			os.Exit(1)
		}
		adminSrv = &http.Server{Handler: s.AdminHandler(), ReadHeaderTimeout: 10 * time.Second}
		fmt.Printf("serve: admin listening on http://%s\n", aln.Addr())
		go func() {
			if err := adminSrv.Serve(aln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "serve: admin:", err)
			}
		}()
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			s.Reload() // rejection is logged; old model keeps serving
		}
	}()

	term := make(chan os.Signal, 1)
	signal.Notify(term, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-term
		fmt.Fprintln(os.Stderr, "serve: draining...")
		sctx, scancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer scancel()
		if adminSrv != nil {
			adminSrv.Shutdown(sctx)
		}
		done <- s.Shutdown(sctx)
	}()

	// The listening line goes to stdout so scripts can scrape the bound
	// address when -addr uses port 0.
	err = s.ListenAndServe(*addr, func(a net.Addr) {
		fmt.Printf("serve: listening on http://%s\n", a)
	})
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	if err := <-done; err != nil {
		fmt.Fprintln(os.Stderr, "serve: shutdown:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "serve: drained cleanly")
}
