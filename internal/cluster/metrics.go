package cluster

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/obs"
)

// metrics is the router's instrument set, on its own obs registry
// (scraped from the router's /metrics and its admin listener).
type metrics struct {
	reg *obs.Registry

	requests        *obs.CounterVec   // code
	latency         *obs.Histogram    // end-to-end, all attempts included
	attempts        *obs.Histogram    // outbound attempts per request
	retries         *obs.CounterVec   // reason: shed, transport, upstream
	budgetExhausted *obs.Counter      // relaunches refused by the retry budget
	retryAfterWaits *obs.Counter      // retries paced by a replica Retry-After
	failovers       *obs.Counter      // answers served by a non-owner replica
	probeFailures   *obs.CounterVec   // replica
	replicaState    *obs.GaugeVec     // replica -> 0 healthy, 1 degraded, 2 down
	proxyLatency    *obs.HistogramVec // replica -> one-attempt seconds
}

func newMetrics() *metrics {
	r := obs.NewRegistry()
	m := &metrics{reg: r}
	m.requests = r.CounterVec("router_requests_total", "Routed requests by final status code.")
	m.latency = r.Histogram("router_request_seconds", "End-to-end request latency through the router, retries included.", obs.DefLatencyBuckets())
	m.attempts = r.Histogram("router_request_attempts", "Outbound attempts per routed request (1 = no retry).", []float64{1, 2, 3, 4, 5})
	m.retries = r.CounterVec("router_retries_total", "Attempt relaunches by cause (shed = replica 429/503, transport = no HTTP answer, upstream = replica 5xx).")
	m.budgetExhausted = r.Counter("router_retry_budget_exhausted_total", "Relaunches refused because the retry budget ran dry.")
	m.retryAfterWaits = r.Counter("router_retry_after_waits_total", "Retries whose pacing honored a replica Retry-After hint.")
	m.failovers = r.Counter("router_failovers_total", "Requests answered by a replica other than the shard owner.")
	m.probeFailures = r.CounterVec("router_probe_failures_total", "Failed health probes, by replica.")
	m.replicaState = r.GaugeVec("router_replica_state", "Replica health (0=healthy, 1=degraded, 2=down).")
	m.proxyLatency = r.HistogramVec("router_proxy_seconds", "Single-attempt proxy latency, by replica.", obs.DefLatencyBuckets())
	started := time.Now()
	r.GaugeFunc("router_uptime_seconds", "Seconds since the router started.", func() float64 {
		return time.Since(started).Seconds()
	})
	obs.RuntimeGauges(r)
	return m
}

func (m *metrics) request(code int, start time.Time, attempts int) {
	m.requests.With(fmt.Sprintf("code=%q", strconv.Itoa(code))).Inc()
	m.latency.ObserveSince(start)
	m.attempts.Observe(float64(attempts))
}

// WriteTo renders the full metric set in Prometheus text format.
func (m *metrics) WriteTo(w io.Writer) (int64, error) {
	return m.reg.WriteTo(w)
}
