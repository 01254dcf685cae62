// Package serve is the online inference tier: an HTTP JSON service
// that turns the trained CNN format selector into a long-running,
// hot-reloadable prediction server. It is the production counterpart
// of the one-shot cmd/predict pipeline and the foundation the scaling
// roadmap (sharding, multi-model, GPU-profile selectors) builds on.
//
// Architecture, front to back:
//
//   - HTTP layer: POST /v1/predict (COO triplets as JSON, or a raw
//     Matrix Market body), GET /healthz, GET /readyz, GET /metrics
//     (Prometheus text format).
//   - Prediction cache: an LRU keyed by sparse.Fingerprint — a
//     position-only pattern hash — so structurally identical matrices
//     skip the CNN forward pass entirely.
//   - One bounded queue: a cache miss is submitted as one job to a
//     robust.Pool of panic-contained workers (queue capacity
//     QueueDepth); a full queue sheds with 429 + Retry-After.
//   - Model slot: an atomic.Pointer[selector.Selector] swapped by
//     Reload after the candidate file passes the checksummed-envelope
//     loader, so a corrupt deploy artifact can never take over and
//     in-flight requests always see a complete model.
//   - Degradation ladder (ladder.go): a circuit breaker guards the CNN
//     rung; consecutive panics, timeouts or reload rejections route
//     traffic to the decision-tree baseline rung and, below it, the
//     always-CSR floor — a sick model degrades answer quality, never
//     availability. Responses and /metrics report which rung answered.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dtree"
	"repro/internal/feedback"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/selector"
	"repro/internal/sparse"
)

// Config parameterises a Server.
type Config struct {
	// ModelPath is the checksummed model artifact (selector.SaveFile
	// output). It is re-read on Reload.
	ModelPath string
	// Workers sizes the prediction pool (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs waiting for a worker; beyond it requests
	// are shed with 429 + Retry-After (default 64*Workers).
	QueueDepth int
	// CacheSize is the LRU prediction cache capacity in entries
	// (default 1024; 0 disables, negative means default).
	CacheSize int
	// MaxBodyBytes caps accepted request bodies (default 32 MiB).
	MaxBodyBytes int64
	// Limits is the resource budget for ingesting one request body
	// (dimension, nonzero and line-length caps). The zero value means
	// sparse.DefaultLimits — the service never runs uncapped.
	Limits sparse.Limits
	// RequestTimeout is the per-request deadline budget covering parse,
	// queueing and prediction (default 15s).
	RequestTimeout time.Duration
	// SLOTargetP99 enables the SLO-driven overload-control plane (see
	// overload.go): adaptive admission sized to keep p99 job latency
	// inside this target, deadline-aware enqueue, adaptive Retry-After
	// and the brownout rung-step. Zero disables the plane entirely —
	// fixed queue, static Retry-After — which is the zero-value default.
	SLOTargetP99 time.Duration
	// PredictTimeout bounds one CNN inference before the ladder counts
	// it as a failure and degrades (default 2s).
	PredictTimeout time.Duration
	// BreakerThreshold is how many consecutive CNN failures (panics,
	// timeouts, reload rejections) trip the breaker onto the
	// decision-tree rung (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker waits before
	// letting a half-open probe test the CNN again (default 15s).
	BreakerCooldown time.Duration
	// DTreePath optionally names a trained decision-tree artifact
	// (dtree.SaveFile output) for the degraded rung. Empty means the
	// built-in heuristic tree over the model's format set.
	DTreePath string
	// Deprecated: SelfURL is not read. A replica never calls another
	// replica, so it has no use for its own address; the field stays
	// declared only because benchmark/fleet.go, which may not change
	// with the code it measures, assigns it.
	SelfURL string
	// FeedbackDir, when non-empty, enables feedback capture: every
	// answered prediction is appended to a crash-safe JSONL log in this
	// directory (see internal/feedback), off the request path. The
	// feedback_* metric series appear on /metrics when enabled.
	FeedbackDir string
	// FeedbackMaxSegmentBytes / FeedbackMaxSegmentAge tune feedback
	// segment rotation (0 = the feedback package defaults).
	FeedbackMaxSegmentBytes int64
	FeedbackMaxSegmentAge   time.Duration
	// FeedbackMaxPatternNNZ caps which matrices embed their COO pattern
	// in feedback entries (0 = default; negative disables patterns).
	FeedbackMaxPatternNNZ int
	// Deprecated: FeedbackEstimates is not read. An entry without a
	// client-reported timing always carries the cost-model estimate;
	// the field stays declared only because benchmark/fleet.go, which
	// may not change with the code it measures, assigns it.
	FeedbackEstimates bool
	// ShadowSampleN mirrors every N-th prediction through the loaded
	// shadow model (see shadow.go); 0 disables mirroring, 1 mirrors
	// everything.
	ShadowSampleN int
	// Log receives operational lines (nil = silent).
	Log io.Writer
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64 * c.Workers
	}
	if c.CacheSize < 0 {
		c.CacheSize = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.Limits == (sparse.Limits{}) {
		c.Limits = sparse.DefaultLimits()
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.PredictTimeout <= 0 {
		c.PredictTimeout = 2 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 15 * time.Second
	}
}

// Server is the online format-selection service.
type Server struct {
	cfg Config

	model atomic.Pointer[selector.Selector]
	gen   atomic.Uint64 // model generation, bumped per successful (re)load

	// The degradation ladder (see ladder.go): breaker guards the CNN
	// rung, dtree is the middle rung, CSR the floor.
	breaker *robust.Breaker
	dtree   *dtree.Selector

	cache   *predictionCache
	met     *metrics
	traces  *obs.TraceLog
	pool    *robust.Pool // workers plus the one bounded job queue
	adm     *admission   // overload-control plane (nil when SLOTargetP99 is 0)
	httpSrv atomic.Pointer[http.Server]

	// Single-flight window: fingerprints with a computation already in
	// flight, so a duplicate request (a router retry, or two
	// clients posting the same pattern) attaches to the running job
	// instead of computing twice. Enabled with the cache (it is the
	// cache's in-flight edge).
	inflightMu sync.Mutex
	inflightFP map[uint64]*call

	draining atomic.Bool
	inflight sync.WaitGroup
	shutOnce sync.Once

	// reload bookkeeping (see reload.go).
	reloadMu  sync.Mutex
	lastStamp modelStamp

	// Feedback capture (nil when Config.FeedbackDir is empty) and the
	// shadow-deployment slot (see shadow.go).
	fb        *feedback.Logger
	shadow    atomic.Pointer[shadowState]
	shadowSeq atomic.Uint64

	// testHookPreJob, when set, runs in the worker before a job is
	// predicted — tests use it to hold requests in flight.
	testHookPreJob func()
}

// New builds a Server and loads the initial model from cfg.ModelPath.
// A missing or corrupt artifact is a construction error: a server that
// cannot predict should fail its deploy, not start degraded (Reload
// exists for recovery after startup).
func New(cfg Config) (*Server, error) {
	cfg.defaults()
	s := &Server{
		cfg:        cfg,
		cache:      newPredictionCache(cfg.CacheSize),
		met:        newMetrics(),
		traces:     obs.NewTraceLog(256),
		inflightFP: map[uint64]*call{},
	}
	s.pool = robust.NewPool(cfg.Workers, cfg.QueueDepth, func(pe *robust.PanicError) {
		s.logf("serve: contained worker panic: %v", pe.Value)
		s.met.workerPanics.SetInt(s.pool.Panics())
	})
	s.met.instrumentPool(s.pool)
	s.breaker = robust.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
	s.breaker.OnTransition = func(from, to robust.BreakerState) {
		s.met.breakerState.SetInt(uint64(to))
		s.met.breakerTransitions.With(fmt.Sprintf("to=%q", to.String())).Inc()
		s.logf("serve: breaker %s -> %s", from, to)
	}
	s.met.instrumentBreaker(s.breaker)
	if cfg.SLOTargetP99 > 0 {
		s.adm = newAdmission(cfg)
		s.adm.onBrownout = func(engaged bool) {
			if engaged {
				s.met.brownoutState.SetInt(1)
				s.met.brownoutTransitions.With(`to="engaged"`).Inc()
				s.logf("serve: brownout engaged (sustained SLO burn; stepping cnn -> dtree)")
			} else {
				s.met.brownoutState.SetInt(0)
				s.met.brownoutTransitions.With(`to="normal"`).Inc()
				s.logf("serve: brownout recovered (load fits cnn capacity again)")
			}
		}
		s.met.instrumentAdmission(s.adm)
	}
	if err := s.Reload(); err != nil {
		s.pool.Close()
		return nil, fmt.Errorf("serve: initial model load: %w", err)
	}
	// The decision-tree rung: a trained deploy artifact when configured
	// (a bad one fails the deploy, like a bad model), otherwise the
	// built-in heuristic tree over the model's own format set — the
	// ladder always has a middle rung.
	if cfg.DTreePath != "" {
		dt, err := dtree.LoadFile(cfg.DTreePath)
		if err != nil {
			s.pool.Close()
			return nil, fmt.Errorf("serve: dtree rung load: %w", err)
		}
		s.dtree = dt
	} else {
		s.dtree = dtree.Heuristic(s.model.Load().Cfg.Formats)
	}
	// Feedback capture: the logger registers its feedback_* instruments
	// on the server's own registry so they ride the same /metrics
	// exposition. A feedback setup failure fails the deploy like any
	// other bad configuration.
	if cfg.FeedbackDir != "" {
		fb, err := feedback.NewLogger(feedback.LoggerConfig{
			Dir:             cfg.FeedbackDir,
			MaxSegmentBytes: cfg.FeedbackMaxSegmentBytes,
			MaxSegmentAge:   cfg.FeedbackMaxSegmentAge,
			MaxPatternNNZ:   cfg.FeedbackMaxPatternNNZ,
			Registry:        s.met.reg,
			Log:             cfg.Log,
		})
		if err != nil {
			s.pool.Close()
			return nil, fmt.Errorf("serve: feedback log: %w", err)
		}
		s.fb = fb
	}
	return s, nil
}

// recordFeedback captures one answered prediction into the feedback
// log (no-op when capture is disabled). Never blocks.
func (s *Server) recordFeedback(pat *sparse.Pattern, fp uint64, pred selector.Prediction, rung string, gen uint64, cacheHit bool, clientSec float64) {
	if s.fb == nil {
		return
	}
	s.fb.Record(pat, feedback.Entry{
		Fingerprint: fp,
		Format:      pred.Format.String(),
		Rung:        rung,
		FellBack:    pred.FellBack,
		CacheHit:    cacheHit,
		ModelGen:    gen,
		ClientSec:   clientSec,
	})
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, format+"\n", args...)
	}
}

// Generation returns the live model generation (1 = initial load).
func (s *Server) Generation() uint64 { return s.gen.Load() }

// Ready reports whether the server can take prediction traffic.
func (s *Server) Ready() bool {
	return s.model.Load() != nil && !s.draining.Load()
}

// Serve accepts connections on ln until Shutdown. It blocks, returning
// http.ErrServerClosed after a clean shutdown like net/http does.
func (s *Server) Serve(ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.httpSrv.Store(hs)
	return hs.Serve(ln)
}

// ListenAndServe binds addr and serves; the bound address (useful with
// ":0") is reported through onListen when non-nil.
func (s *Server) ListenAndServe(addr string, onListen func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	return s.Serve(ln)
}

// Shutdown drains the server: readiness flips to 503, new predictions
// are refused, in-flight requests run to completion (bounded by ctx),
// the worker pool stops, and a final metrics snapshot is flushed to the
// configured log. It returns ctx.Err() when the drain deadline expires
// first.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.shutOnce.Do(func() {
		s.draining.Store(true)

		// Stop the HTTP listener (if Serve was used) and wait for
		// handler goroutines; both respect the ctx deadline.
		if hs := s.httpSrv.Load(); hs != nil {
			if e := hs.Shutdown(ctx); e != nil && !errors.Is(e, http.ErrServerClosed) {
				err = e
			}
		}
		done := make(chan struct{})
		go func() {
			s.inflight.Wait()
			close(done)
		}()
		drained := false
		select {
		case <-done:
			drained = true
		case <-ctx.Done():
			if err == nil {
				err = ctx.Err()
			}
		}

		// No new jobs can be accepted now. On a clean drain, close the
		// pool and wait for it so every queued job finishes. On a blown
		// deadline a worker may be wedged; waiting on it would turn a
		// bounded shutdown into an unbounded one, so the pool is
		// abandoned (the process is exiting anyway).
		if drained {
			s.pool.Close()
		} else {
			s.logf("serve: drain deadline exceeded; abandoning in-flight work")
		}

		// Seal the feedback log last so every drained answer's entry is
		// rotated into a collector-visible segment.
		if s.fb != nil {
			if e := s.fb.Close(); e != nil {
				s.logf("serve: feedback log close: %v", e)
			}
		}

		if s.cfg.Log != nil {
			s.logf("serve: final metrics")
			s.met.WriteTo(s.cfg.Log)
		}
	})
	return err
}

// predictOne resolves one prediction request end to end: cache lookup,
// single-flight coalescing, one queue hop to a worker, cache fill. It
// is the handler-side entry point; ctx aborts the wait (client gone /
// drain deadline) and carries the request trace, which gains the cache
// span here and queue/rung/forward spans on the worker side. meta
// carries the client's timing in and the cache outcome back out to the
// handler's response header.
func (s *Server) predictOne(ctx context.Context, sc *Scanned, meta *predictMeta) (answer, error) {
	tr := obs.TraceFrom(ctx)
	cacheStart := time.Now()
	fp := sc.Fingerprint()
	if pred, gen, ok := s.cache.Get(fp); ok {
		s.met.cacheHits.Inc()
		tr.ObserveSpan("cache", cacheStart)
		meta.cacheStatus = "hit"
		// A hit under capture costs a hit plus a channel send: the log
		// wants the positions, which the scan already holds.
		if s.fb != nil {
			pat, err := sc.Pattern()
			if err != nil {
				return answer{}, err
			}
			s.recordFeedback(pat, fp, pred, rungCNN, gen, true, meta.clientSec)
		}
		// Only CNN-rung answers are ever cached, so a hit reports the
		// cnn rung.
		return makeAnswer(pred, gen, true, rungCNN), nil
	}
	s.met.cacheMisses.Inc()
	tr.ObserveSpan("cache", cacheStart)
	meta.cacheStatus = "miss"

	// Single-flight: if the same fingerprint is already being computed,
	// attach to that computation instead of enqueueing a duplicate.
	// This is what makes POST /v1/predict idempotent-by-fingerprint
	// under router retries: the repeated request can never
	// double-count a forward pass. The window rides on the cache
	// (CacheSize 0 disables both — drills that must exercise the ladder
	// on every request turn the cache off and get the old behaviour).
	dedup := s.cfg.CacheSize > 0
	c := newCall()
	if dedup {
		s.inflightMu.Lock()
		if existing, ok := s.inflightFP[fp]; ok {
			s.inflightMu.Unlock()
			s.met.dedupHits.Inc()
			meta.coalesced = true
			select {
			case <-existing.done:
				return waitResult(existing)
			case <-ctx.Done():
				return answer{}, ctx.Err()
			}
		}
		s.inflightFP[fp] = c
		s.inflightMu.Unlock()
	}

	// The leader's job runs on a context detached from the leader's own
	// request (same deadline, no cancellation): its result is shared
	// with any coalesced duplicates, so one client hanging up must not
	// poison the answer everyone else gets.
	jctx := ctx
	var jcancel context.CancelFunc
	if dedup {
		base := context.WithoutCancel(ctx)
		if dl, ok := ctx.Deadline(); ok {
			jctx, jcancel = context.WithDeadline(base, dl)
		} else {
			jctx = base
		}
	}
	j := &job{ctx: jctx, cancel: jcancel, fp: fp, tr: tr, call: c, clientSec: meta.clientSec}
	// SLO-driven admission (when enabled): the adaptive limiter decides
	// whether this job may enter the system, and a request whose
	// remaining deadline cannot cover the expected queue wait is shed
	// here, while refusal is still cheap. The slot is released in
	// finishJob with the job's observed latency, which is what drives
	// the limit.
	if s.adm != nil {
		if aerr := s.adm.admit(ctx); aerr != nil {
			s.met.queueRejects.Inc()
			s.met.admissionRejects.With(admitReasonLabel(aerr)).Inc()
			s.finishJob(j, jobResult{err: aerr})
			return answer{}, aerr
		}
		j.admitted = true
	}
	// The job carries the pattern — all a decision reads, copied out of
	// the Scanned — and not the Scanned, which the next request scans
	// into once this handler returns, however long the worker, the
	// feedback queue or the shadow mirror hold on to the job. Its time in
	// the system starts here.
	pat, err := sc.Pattern()
	j.pat, j.enqueued = pat, time.Now()
	if err != nil {
		s.finishJob(j, jobResult{err: err})
		return answer{}, err
	}
	if err := s.pool.Submit(func() { s.runJob(j) }); err != nil {
		// Admission control: a full queue sheds immediately (the
		// handler answers 429 + Retry-After) instead of letting latency
		// grow without bound under overload. Coalesced waiters shed
		// with their leader. With the adaptive plane on, the limiter
		// (whose ceiling is the queue depth) sheds first, so this path
		// is the legacy fixed-queue behaviour.
		if errors.Is(err, robust.ErrPoolFull) {
			s.met.queueRejects.Inc()
			err = errOverloaded
		} else {
			err = errShutdown
		}
		s.finishJob(j, jobResult{err: err})
		return answer{}, err
	}
	select {
	case <-c.done:
		return waitResult(c)
	case <-ctx.Done():
		return answer{}, ctx.Err()
	}
}

// waitResult converts a completed call into the handler-facing answer.
func waitResult(c *call) (answer, error) {
	if c.res.err != nil {
		return answer{}, c.res.err
	}
	return makeAnswer(c.res.pred, c.res.gen, false, c.res.rung), nil
}

var errOverloaded = errors.New("serve: prediction queue full")

// Metrics returns the server's metric registry — the backing store of
// /metrics, shared with the admin listener.
func (s *Server) Metrics() *obs.Registry { return s.met.reg }

// Traces returns the server's ring buffer of recent request traces.
func (s *Server) Traces() *obs.TraceLog { return s.traces }
