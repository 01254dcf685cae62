package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/sparse"
)

// preRefactorMetricNames is the frozen contract: every metric the serve
// package exposed before the obs refactor must still appear on /metrics.
// Do not remove entries from this list — renames break dashboards.
// (The serve_batch* series described the micro-batcher and left with
// it; serve_rung_total counts executed jobs.)
var preRefactorMetricNames = []string{
	"serve_breaker_short_circuits_total",
	"serve_breaker_state",
	"serve_breaker_transitions_total",
	"serve_cache_entries",
	"serve_cache_evictions_total",
	"serve_cache_hits_total",
	"serve_cache_misses_total",
	"serve_cnn_failures_total",
	"serve_fallbacks_total",
	"serve_inflight_requests",
	"serve_model_generation",
	"serve_model_reload_failures_total",
	"serve_model_reloads_total",
	"serve_predictions_total",
	"serve_queue_rejects_total",
	"serve_request_seconds",
	"serve_requests_total",
	"serve_rung_total",
	"serve_worker_panics_total",
}

// TestMetricsNameSuperset asserts the obs-backed /metrics output is a
// superset of the pre-refactor metric-name set.
func TestMetricsNameSuperset(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One request of each outcome so counters have been touched.
	postPredict(t, ts, matrixJSON(16, 1), "application/json")
	postPredict(t, ts, []byte("{"), "application/json")

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	out := string(body)

	for _, name := range preRefactorMetricNames {
		if !strings.Contains(out, "# TYPE "+name+" ") {
			t.Errorf("pre-refactor metric %s missing from /metrics", name)
		}
	}
	// Spot-check that old rendered series shapes survived the rewrite.
	for _, want := range []string{
		`serve_requests_total{code="200",endpoint="predict"}`,
		`serve_request_seconds_bucket{endpoint="predict",le="`,
		"serve_model_generation 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing rendered series %q in:\n%s", want, out)
		}
	}
}

// TestLabelsAsRendered: every label set a handler emits is the text
// fmt.Sprintf rendered before the label tables — every endpoint, code
// and retried value, every rung and every format, and a value outside
// the tables too — and looking one up allocates nothing.
func TestLabelsAsRendered(t *testing.T) {
	check := func(got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("label %q, want %q", got, want)
		}
	}
	for _, ep := range slices.Concat(endpoints, []string{"elsewhere"}) {
		check(endpointLabel(ep), fmt.Sprintf("endpoint=%q", ep))
		for _, code := range slices.Concat(statusCodes, []int{500}) {
			want := fmt.Sprintf("code=%q,endpoint=%q", strconv.Itoa(code), ep)
			check(requestLabel(ep, code, false), want)
			check(requestLabel(ep, code, true), want+`,retried="true"`)
		}
	}
	for _, rung := range []string{rungCNN, rungDTree, rungCSR, "other"} {
		check(rungLabel(rung), fmt.Sprintf("rung=%q", rung))
	}
	for _, f := range append(sparse.AllFormats(), sparse.Format(99)) {
		check(formatLabel(f), fmt.Sprintf("format=%q", f.String()))
	}

	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(100, func() {
		requestLabel("predict", 200, false)
		requestLabel("predict", 413, true)
		endpointLabel("predict")
		rungLabel(rungCNN)
		formatLabel(sparse.FormatCSR)
	}); n != 0 {
		t.Errorf("%v allocations to look up a request's labels", n)
	}
}

// TestPredictAllocsGauge asserts the per-job allocation gauge is
// exposed and populated after a batch runs.
func TestPredictAllocsGauge(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postPredict(t, ts, matrixJSON(16, 1), "application/json")

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "# TYPE serve_predict_allocs gauge") {
		t.Fatal("serve_predict_allocs missing from /metrics")
	}
}

// traceResponse decodes a predict response including the trace block.
func traceResponse(t *testing.T, ts *httptest.Server, body []byte) (string, response) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/predict?trace=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var r response
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("bad body %q: %v", data, err)
	}
	return resp.Header.Get("X-Trace-Id"), r
}

// TestTracePropagation verifies one trace ID spans the whole request
// path — HTTP ingress, job queue, ladder rung, forward pass — and is
// reported consistently in the header, body, and /debug/traces ring.
func TestTracePropagation(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.CacheSize = 0 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	header, resp := traceResponse(t, ts, matrixJSON(24, 2))
	if header == "" || resp.TraceID != header {
		t.Fatalf("trace ID mismatch: header %q body %q", header, resp.TraceID)
	}

	stages := map[string]bool{}
	for _, sp := range resp.Trace {
		if sp.DurationMicros < 0 {
			t.Errorf("span %s has negative duration", sp.Name)
		}
		if strings.HasPrefix(sp.Name, "rung:") {
			stages["rung"] = true
		}
		stages[sp.Name] = true
	}
	for _, want := range []string{"parse", "queue", "rung"} {
		if !stages[want] {
			t.Errorf("trace missing %q span; got %+v", want, resp.Trace)
		}
	}

	// The finished trace must land in the admin ring with its status.
	admin := httptest.NewServer(s.AdminHandler())
	defer admin.Close()
	tr, err := admin.Client().Get(admin.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	ring, _ := io.ReadAll(tr.Body)
	if !strings.Contains(string(ring), header) {
		t.Errorf("trace %s absent from /debug/traces:\n%s", header, ring)
	}
}

// TestTracePropagationUnderBatching fires concurrent requests so jobs
// share the queue and the worker pool, then checks every response still
// carries its own distinct, complete trace. (Named for the micro-batcher
// it was written against; the name is kept so test history lines up.)
func TestTracePropagationUnderBatching(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.CacheSize = 0
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	ids := make([]string, n)
	resps := make([]response, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct sizes so no two requests share a fingerprint.
			ids[i], resps[i] = traceResponse(t, ts, matrixJSON(16+i, 1))
		}(i)
	}
	wg.Wait()

	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		if ids[i] == "" || seen[ids[i]] {
			t.Fatalf("request %d: missing or duplicated trace ID %q", i, ids[i])
		}
		seen[ids[i]] = true
		stages := map[string]bool{}
		for _, sp := range resps[i].Trace {
			stages[sp.Name] = true
			if strings.HasPrefix(sp.Name, "rung:") {
				stages["rung"] = true
			}
		}
		for _, want := range []string{"parse", "queue", "rung"} {
			if !stages[want] {
				t.Errorf("request %d trace missing %q span: %+v", i, want, resps[i].Trace)
			}
		}
	}
}

// TestTraceOptInOnly: without ?trace=1 the response carries the ID but
// not the span block, keeping default payloads small.
func TestTraceOptInOnly(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, resp, _ := postPredict(t, ts, matrixJSON(24, 2), "application/json")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.TraceID == "" {
		t.Fatal("trace ID absent without opt-in")
	}
	if len(resp.Trace) != 0 {
		t.Fatalf("span block leaked without opt-in: %+v", resp.Trace)
	}
}
