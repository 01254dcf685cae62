package serve

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/robust"
)

// labelTable holds the label sets of a closed set of values, rendered
// once at start-up: a request looks its own up, where rendering it
// would allocate on every request. A value outside the set is rendered
// on the spot, the same way.
type labelTable[K comparable] struct {
	m      map[K]string
	render func(K) string
}

func newLabelTable[K comparable](render func(K) string, keys ...K) labelTable[K] {
	t := labelTable[K]{m: make(map[K]string, len(keys)), render: render}
	for _, k := range keys {
		t.m[k] = render(k)
	}
	return t
}

func (t labelTable[K]) label(k K) string {
	if l, ok := t.m[k]; ok {
		return l
	}
	return t.render(k)
}

// endpoints are the values of the endpoint label, and statusCodes the
// codes the handlers answer with.
var (
	endpoints   = []string{"cache", "healthz", "metrics", "predict", "readyz"}
	statusCodes = []int{200, 400, 405, 413, 422, 429, 503}
)

// requestKey is what a completed request's label set says.
type requestKey struct {
	endpoint string
	code     int
	retried  bool
}

var (
	requestLabels = newLabelTable(func(k requestKey) string {
		l := fmt.Sprintf("code=%q,endpoint=%q", strconv.Itoa(k.code), k.endpoint)
		if k.retried {
			l += `,retried="true"`
		}
		return l
	}, requestKeys()...)
	endpointLabels = newLabelTable(func(ep string) string {
		return fmt.Sprintf("endpoint=%q", ep)
	}, endpoints...)
)

func requestKeys() []requestKey {
	var ks []requestKey
	for _, ep := range endpoints {
		for _, code := range statusCodes {
			ks = append(ks, requestKey{ep, code, false}, requestKey{ep, code, true})
		}
	}
	return ks
}

// requestLabel renders the label set of one completed request,
// byte-identical to the pre-obs exposition for first attempts. Router
// retries gain a trailing retried="true" label (appended
// last to keep the alphabetical label order the renderer pins), so
// fleet dashboards can subtract failover duplicates from true demand.
func requestLabel(endpoint string, code int, retried bool) string {
	return requestLabels.label(requestKey{endpoint, code, retried})
}

// endpointLabel renders the latency histogram's label set.
func endpointLabel(endpoint string) string {
	return endpointLabels.label(endpoint)
}

// This file wires the server's instrument set onto the shared obs
// registry (internal/obs). Every metric name predates the obs layer —
// dashboards scrape them — so the refactor keeps the full name set (a
// regression test asserts the superset) while gaining labeled
// histograms, quantile snapshots and a registry the admin listener and
// request tracing share.

// metrics is the server's full instrument set.
type metrics struct {
	reg *obs.Registry

	requests       *obs.CounterVec   // endpoint, code
	latency        *obs.HistogramVec // endpoint -> seconds
	predictions    *obs.CounterVec   // format
	fallbacks      *obs.CounterVec   // reason class
	parsed         *obs.CounterVec   // accepted bodies by path (streamed, built)
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	cacheSize      *obs.Gauge
	dedupHits      *obs.Counter // requests coalesced onto an in-flight computation
	predictAllocs  *obs.Gauge   // heap objects allocated by the most recent predict job
	queueRejects   *obs.Counter
	reloads        *obs.Counter

	// Overload-control instruments (see overload.go). The counters are
	// always registered (they also cover the always-on dequeue eviction);
	// the admission/SLO gauges appear only when the plane is enabled.
	queueExpired          *obs.Counter    // jobs evicted unexecuted at dequeue
	admissionRejects      *obs.CounterVec // sheds by reason (queue, deadline, expired)
	brownoutState         *obs.Gauge      // 1 while browned out
	brownoutTransitions   *obs.CounterVec // brownout transitions by target state
	brownoutShortCircuits *obs.Counter    // requests stepped past the CNN by brownout
	reloadFails           *obs.Counter
	modelGen              *obs.Gauge
	workerPanics          *obs.Gauge
	inflight              atomic.Int64

	// Degradation-ladder instruments (see ladder.go).
	rungs                *obs.CounterVec // which ladder rung answered
	cnnFailures          *obs.CounterVec // CNN rung failures by cause
	breakerTransitions   *obs.CounterVec // breaker transitions by target state
	breakerState         *obs.Gauge      // 0=closed, 1=open, 2=half-open
	breakerShortCircuits *obs.Counter    // requests routed past the CNN without trying it

	// Shadow-deployment instruments (see shadow.go).
	shadowLoaded   *obs.Gauge     // 1 while a shadow model is installed
	shadowLoads    *obs.Counter   // accepted shadow loads
	shadowRejects  *obs.Counter   // rejected shadow artifacts (checksum/probe)
	shadowRequests *obs.Counter   // predictions mirrored through the shadow
	shadowAgree    *obs.Counter   // mirrored predictions agreeing with live
	shadowDisagree *obs.Counter   // mirrored predictions disagreeing with live
	shadowErrors   *obs.Counter   // shadow forward passes that failed
	shadowSeconds  *obs.Histogram // shadow forward latency
}

// newMetrics registers the serving instrument set on a fresh registry.
// Registration order is rendering order, matched to the pre-obs
// exposition so diffs against old scrapes stay readable.
func newMetrics() *metrics {
	r := obs.NewRegistry()
	m := &metrics{reg: r}

	m.requests = r.CounterVec("serve_requests_total", "HTTP requests by endpoint and status code.")
	m.latency = r.HistogramVec("serve_request_seconds", "Request latency by endpoint.", obs.DefLatencyBuckets())
	// Pre-create the endpoint series so a fresh server's scrape already
	// shows the full latency name set.
	for _, ep := range endpoints {
		m.latency.With(endpointLabel(ep))
	}
	m.predictions = r.CounterVec("serve_predictions_total", "Predictions served, by chosen format.")
	m.fallbacks = r.CounterVec("serve_fallbacks_total", "Predictions that degraded to the CSR baseline, by cause.")
	m.rungs = r.CounterVec("serve_rung_total", "Predictions answered, by ladder rung (cnn, dtree, csr).")
	m.cnnFailures = r.CounterVec("serve_cnn_failures_total", "CNN rung failures counted against the breaker, by cause.")
	m.breakerTransitions = r.CounterVec("serve_breaker_transitions_total", "Circuit breaker state transitions, by target state.")
	m.breakerState = r.Gauge("serve_breaker_state", "Circuit breaker state (0=closed, 1=open, 2=half-open).")
	m.breakerShortCircuits = r.Counter("serve_breaker_short_circuits_total", "Requests routed past the CNN rung while the breaker was open.")

	m.parsed = r.CounterVec("serve_parse_total", "Accepted predict bodies, by path: streamed (canonical JSON, fingerprinted while scanned; a cache hit builds no matrix) or built (unsorted, duplicate- or zero-bearing JSON and Matrix Market: full decode before the cache).")
	m.cacheHits = r.Counter("serve_cache_hits_total", "Prediction cache hits (NN forward pass skipped).")
	m.cacheMisses = r.Counter("serve_cache_misses_total", "Prediction cache misses.")
	m.cacheEvictions = r.Counter("serve_cache_evictions_total", "Prediction cache LRU evictions.")
	m.cacheSize = r.Gauge("serve_cache_entries", "Current prediction cache entries.")
	m.dedupHits = r.Counter("serve_dedup_hits_total", "Requests coalesced onto an in-flight computation for the same fingerprint.")

	m.predictAllocs = r.Gauge("serve_predict_allocs", "Heap objects allocated over the most recent predict job (process-wide delta: concurrent jobs and background work inflate it).")
	m.queueRejects = r.Counter("serve_queue_rejects_total", "Requests rejected because the job queue was full.")
	m.queueExpired = r.Counter("serve_queue_expired_total", "Jobs evicted unexecuted at dequeue because their deadline expired (or the client hung up) while queued.")
	m.admissionRejects = r.CounterVec("serve_admission_rejects_total", "Requests shed by SLO-driven admission, by reason (queue, deadline, expired).")
	m.brownoutState = r.Gauge("serve_brownout_state", "1 while the overload plane is answering from the dtree rung for capacity reasons.")
	m.brownoutTransitions = r.CounterVec("serve_brownout_transitions_total", "Brownout transitions, by target state (engaged, normal).")
	m.brownoutShortCircuits = r.Counter("serve_brownout_short_circuits_total", "Requests stepped past the CNN rung by the brownout controller.")

	m.shadowLoaded = r.Gauge("serve_shadow_loaded", "1 while a shadow model is installed for mirrored inference.")
	m.shadowLoads = r.Counter("serve_shadow_loads_total", "Shadow models accepted (checksummed load + probe passed).")
	m.shadowRejects = r.Counter("serve_shadow_rejects_total", "Shadow artifacts rejected by the checksummed loader or probe.")
	m.shadowRequests = r.Counter("serve_shadow_requests_total", "Predictions mirrored through the shadow model.")
	m.shadowAgree = r.Counter("serve_shadow_agree_total", "Mirrored predictions whose shadow format matched the live answer.")
	m.shadowDisagree = r.Counter("serve_shadow_disagree_total", "Mirrored predictions whose shadow format differed from the live answer.")
	m.shadowErrors = r.Counter("serve_shadow_errors_total", "Shadow forward passes that failed or timed out.")
	m.shadowSeconds = r.Histogram("serve_shadow_seconds", "Shadow model forward latency.", obs.DefLatencyBuckets())

	m.reloads = r.Counter("serve_model_reloads_total", "Successful model hot reloads.")
	m.reloadFails = r.Counter("serve_model_reload_failures_total", "Rejected model reloads (validation failed; old model kept).")
	m.modelGen = r.Gauge("serve_model_generation", "Generation of the live model (bumps on every reload).")
	m.workerPanics = r.Gauge("serve_worker_panics_total", "Panics contained by the prediction worker pool.")

	r.GaugeFunc("serve_inflight_requests", "Predict requests currently in flight.", func() float64 {
		v := m.inflight.Load()
		if v < 0 {
			v = 0
		}
		return float64(v)
	})
	started := time.Now()
	r.GaugeFunc("serve_uptime_seconds", "Seconds since the server started.", func() float64 {
		return time.Since(started).Seconds()
	})
	obs.RuntimeGauges(r)
	return m
}

// instrumentPool exposes worker-pool liveness through the registry —
// throughput and queue depth, next to the panic containment the gauge
// above tracks.
func (m *metrics) instrumentPool(p *robust.Pool) {
	m.reg.GaugeFunc("serve_pool_tasks_submitted_total", "Tasks accepted by the prediction worker pool.", func() float64 {
		return float64(p.Stats().Submitted)
	})
	m.reg.GaugeFunc("serve_pool_tasks_completed_total", "Tasks finished by the prediction worker pool (panicked tasks included).", func() float64 {
		return float64(p.Stats().Completed)
	})
	m.reg.GaugeFunc("serve_pool_queue_depth", "Tasks waiting in the prediction pool queue.", func() float64 {
		return float64(p.Stats().Queued)
	})
}

// instrumentAdmission exposes the overload-control plane: the adaptive
// limit and its occupancy, the SLO window (goodput and burn rate) and
// the drain-rate-derived Retry-After.
// Registered only when Config.SLOTargetP99 enables the plane.
func (m *metrics) instrumentAdmission(a *admission) {
	m.reg.GaugeFunc("serve_admission_limit", "Current adaptive admission limit (jobs allowed in the system).", func() float64 {
		return float64(a.lim.Limit())
	})
	m.reg.GaugeFunc("serve_admission_inflight", "Jobs currently holding an admission slot (queued + executing).", func() float64 {
		return float64(a.lim.InFlight())
	})
	m.reg.GaugeFunc("serve_slo_target_seconds", "Configured p99 latency SLO target.", func() float64 {
		return a.target.Seconds()
	})
	m.reg.GaugeFunc("serve_slo_goodput_rps", "In-SLO successful answers per second over the rolling window.", func() float64 {
		return a.tracker.Snapshot().GoodputRPS
	})
	m.reg.GaugeFunc("serve_slo_burn_rate", "SLO error-budget burn rate over the rolling window (1.0 = spending exactly the budget).", func() float64 {
		return a.tracker.Snapshot().BurnRate
	})
	m.reg.GaugeFunc("serve_retry_after_seconds", "Retry-After currently advised to shed clients (derived from queue drain rate).", func() float64 {
		return float64(a.retryAfterSeconds())
	})
}

// instrumentBreaker exposes breaker internals beyond the state gauge.
func (m *metrics) instrumentBreaker(b *robust.Breaker) {
	m.reg.GaugeFunc("serve_breaker_consecutive_failures", "Current consecutive-failure streak against the CNN rung.", func() float64 {
		return float64(b.Consecutive())
	})
}

// request records one completed request (never a retry — only
// /v1/predict carries the router's attempt header).
func (m *metrics) request(endpoint string, code int, start time.Time) {
	m.requestRetriable(endpoint, code, start, false)
}

// requestRetriable records one completed request, labeled as a router
// retry when the attempt header said so.
func (m *metrics) requestRetriable(endpoint string, code int, start time.Time, retried bool) {
	m.requests.With(requestLabel(endpoint, code, retried)).Inc()
	m.latency.With(endpointLabel(endpoint)).ObserveSince(start)
}

// WriteTo renders the full metric set in Prometheus text format.
func (m *metrics) WriteTo(w io.Writer) (int64, error) {
	return m.reg.WriteTo(w)
}
