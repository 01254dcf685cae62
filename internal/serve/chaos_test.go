package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/robust"
)

// The chaos suite: every test arms a named fault-injection point,
// drives the server through the induced failure, and asserts the
// degradation contract — requests are always answered (the right rung,
// never a 500, never a hang), the breaker trips and recovers, and the
// failure is visible in /metrics.

// newChaosServer is newTestServer plus fault-injection hygiene: the
// registry is cleared on cleanup so an armed point cannot leak into the
// next test. The cache is disabled so every request exercises the
// ladder.
func newChaosServer(t *testing.T, mutate func(*Config)) (*Server, string) {
	t.Helper()
	t.Cleanup(faultinject.Reset)
	return newTestServer(t, func(c *Config) {
		c.CacheSize = 0
		if mutate != nil {
			mutate(c)
		}
	})
}

// labeledMetric extracts one labeled sample value, returning 0 when the
// series has not been created yet.
func labeledMetric(page, series string) float64 {
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, series+" ")), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// TestChaosPanicsTripBreakerThenRecover is the acceptance scenario:
// a poisoned CNN panics on every request, the breaker trips after the
// configured threshold, the decision-tree rung keeps answering, and
// once the fault clears a half-open probe restores the CNN rung.
func TestChaosPanicsTripBreakerThenRecover(t *testing.T) {
	const cooldown = 200 * time.Millisecond
	s, _ := newChaosServer(t, func(c *Config) {
		c.BreakerThreshold = 3
		c.BreakerCooldown = cooldown
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	faultinject.Enable(faultinject.PointPredictPanic, faultinject.Fault{Panic: "poisoned weights"})

	// Every request during the outage is answered 200 from the tree
	// rung; the third failure trips the breaker.
	for i := 0; i < 3; i++ {
		code, resp, _ := postPredict(t, ts, matrixJSON(10+i, 1), "application/json")
		if code != http.StatusOK {
			t.Fatalf("request %d during outage: status %d, want 200", i, code)
		}
		if resp.Rung != rungDTree || !resp.FellBack {
			t.Fatalf("request %d during outage: rung %q fellback=%v, want dtree fallback", i, resp.Rung, resp.FellBack)
		}
		validFormat(t, resp.Format)
	}
	if st := s.breaker.State(); st != robust.BreakerOpen {
		t.Fatalf("breaker %v after %d consecutive panics, want open", st, 3)
	}

	// With the breaker open (or a probe re-panicking) the tree still
	// answers.
	code, resp, _ := postPredict(t, ts, matrixJSON(20, 1), "application/json")
	if code != http.StatusOK || resp.Rung != rungDTree {
		t.Fatalf("request while open: status %d rung %q", code, resp.Rung)
	}

	// Fault clears; after the cooldown the half-open probe finds the CNN
	// healthy and closes the breaker.
	faultinject.Disable(faultinject.PointPredictPanic)
	time.Sleep(cooldown + 50*time.Millisecond)
	code, resp, _ = postPredict(t, ts, matrixJSON(21, 1), "application/json")
	if code != http.StatusOK || resp.Rung != rungCNN || resp.FellBack {
		t.Fatalf("probe request: status %d rung %q fellback=%v, want healthy cnn", code, resp.Rung, resp.FellBack)
	}
	if st := s.breaker.State(); st != robust.BreakerClosed {
		t.Fatalf("breaker %v after successful probe, want closed", st)
	}

	page := scrapeMetrics(t, ts)
	if v := labeledMetric(page, `serve_rung_total{rung="dtree"}`); v < 4 {
		t.Errorf("dtree rung count %g, want >= 4", v)
	}
	if v := labeledMetric(page, `serve_rung_total{rung="cnn"}`); v < 1 {
		t.Errorf("cnn rung count %g, want >= 1", v)
	}
	if v := labeledMetric(page, `serve_cnn_failures_total{cause="panic_or_other"}`); v < 3 {
		t.Errorf("panic failure count %g, want >= 3", v)
	}
	for _, to := range []string{"open", "half-open", "closed"} {
		if v := labeledMetric(page, `serve_breaker_transitions_total{to="`+to+`"}`); v < 1 {
			t.Errorf("no transition to %s recorded", to)
		}
	}
	if v := metricValue(t, page, "serve_breaker_state"); v != 0 {
		t.Errorf("breaker state gauge %g, want 0 (closed)", v)
	}
}

// TestChaosSlowModelTimesOut: a wedged forward pass is abandoned at
// PredictTimeout and counted against the breaker; once open, requests
// skip the stall entirely and answer fast from the tree.
func TestChaosSlowModelTimesOut(t *testing.T) {
	s, _ := newChaosServer(t, func(c *Config) {
		c.PredictTimeout = 30 * time.Millisecond
		c.BreakerThreshold = 2
		c.BreakerCooldown = time.Minute // no recovery inside this test
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	faultinject.Enable(faultinject.PointPredictSlow, faultinject.Fault{Delay: 10 * time.Second})

	for i := 0; i < 2; i++ {
		code, resp, _ := postPredict(t, ts, matrixJSON(10+i, 1), "application/json")
		if code != http.StatusOK || resp.Rung != rungDTree {
			t.Fatalf("request %d against stalled model: status %d rung %q", i, code, resp.Rung)
		}
	}
	if st := s.breaker.State(); st != robust.BreakerOpen {
		t.Fatalf("breaker %v after repeated timeouts, want open", st)
	}

	// Open breaker: no PredictTimeout wait, the tree answers immediately.
	start := time.Now()
	code, resp, _ := postPredict(t, ts, matrixJSON(20, 1), "application/json")
	if code != http.StatusOK || resp.Rung != rungDTree {
		t.Fatalf("short-circuited request: status %d rung %q", code, resp.Rung)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("short-circuited request took %v", el)
	}

	page := scrapeMetrics(t, ts)
	if v := labeledMetric(page, `serve_cnn_failures_total{cause="timeout"}`); v != 2 {
		t.Errorf("timeout failure count %g, want 2", v)
	}
	if v := metricValue(t, page, "serve_breaker_short_circuits_total"); v < 1 {
		t.Errorf("short circuits %g, want >= 1", v)
	}
}

// TestChaosCorruptReloadTripsBreaker: consecutive rejected reloads (a
// bad artifact on disk) walk the breaker open; the tree rung carries
// traffic until a valid artifact lands, whose validated reload closes
// the breaker without waiting out the cooldown.
func TestChaosCorruptReloadTripsBreaker(t *testing.T) {
	s, model := newChaosServer(t, func(c *Config) {
		c.BreakerThreshold = 2
		c.BreakerCooldown = time.Minute
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := os.WriteFile(model, []byte("not a model artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Reload(); err == nil {
			t.Fatal("corrupt artifact accepted by reload")
		}
	}
	if st := s.breaker.State(); st != robust.BreakerOpen {
		t.Fatalf("breaker %v after rejected reloads, want open", st)
	}

	// The live (old-generation) model is intact, but the breaker routes
	// around it until the deploy is proven healthy again.
	code, resp, _ := postPredict(t, ts, matrixJSON(16, 1), "application/json")
	if code != http.StatusOK || resp.Rung != rungDTree {
		t.Fatalf("request during bad deploy: status %d rung %q", code, resp.Rung)
	}
	if !strings.Contains(resp.Reason, "breaker open") {
		t.Fatalf("reason %q does not name the breaker", resp.Reason)
	}

	// A valid artifact lands: the reload validates, swaps and force-
	// closes the breaker.
	saveTestModel(t, model, 2)
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	if st := s.breaker.State(); st != robust.BreakerClosed {
		t.Fatalf("breaker %v after validated reload, want closed", st)
	}
	code, resp, _ = postPredict(t, ts, matrixJSON(17, 1), "application/json")
	if code != http.StatusOK || resp.Rung != rungCNN || resp.ModelGeneration != 2 {
		t.Fatalf("post-recovery request: status %d rung %q gen %d", code, resp.Rung, resp.ModelGeneration)
	}
}

// TestChaosQueueShedsWith429: with the lone worker parked on a test
// hook, overload is shed with 429 + Retry-After (never 500, never a
// hang), and the shedding is visible in /metrics.
func TestChaosQueueShedsWith429(t *testing.T) {
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	s, _ := newChaosServer(t, func(c *Config) {
		c.Workers = 1
		c.QueueDepth = 1
	})
	entered := make(chan struct{}, 16)
	s.testHookPreJob = func() {
		entered <- struct{}{}
		<-hold
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { release(); ts.Close() }()
	ts.Client().Transport.(*http.Transport).MaxIdleConnsPerHost = 16

	// Park the worker, then pile on more requests than the queue holds.
	type result struct {
		code       int
		retryAfter string
	}
	results := make(chan result, 16)
	post := func(i int) {
		resp, err := ts.Client().Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(matrixJSON(10+i, 1)))
		if err != nil {
			t.Error(err)
			results <- result{code: -1}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		results <- result{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
	}
	go post(0)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first request never reached the worker")
	}
	const extra = 8
	for i := 1; i <= extra; i++ {
		go post(i)
	}

	// Shed responses arrive while the worker stays parked; held requests
	// drain only after release. Every answer is 200 or 429 — overload
	// must never surface as a 500.
	var sheds int
	collected := make([]result, 0, extra+1)
	deadline := time.After(10 * time.Second)
	collect := func(what string) {
		select {
		case r := <-results:
			collected = append(collected, r)
			if r.code == http.StatusTooManyRequests {
				sheds++
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %s (%d of %d collected)", what, len(collected), extra+1)
		}
	}
	for sheds == 0 {
		collect("a shed response with the worker parked")
	}
	release()
	for len(collected) < extra+1 {
		collect("held requests to drain")
	}
	for _, r := range collected {
		switch r.code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			if r.retryAfter == "" {
				t.Error("shed response missing Retry-After header")
			}
		default:
			t.Errorf("overloaded server answered %d, want 200 or 429", r.code)
		}
	}
	if v := metricValue(t, scrapeMetrics(t, ts), "serve_queue_rejects_total"); v < float64(sheds) {
		t.Errorf("queue rejects %g, want >= %d", v, sheds)
	}
}

// TestChaosParserStallHonoursDeadline: a stalled parse (injected in the
// entry loop of either body encoding) is cut off by the request budget
// — the client gets a 4xx, not a hung connection or a 500.
func TestChaosParserStallHonoursDeadline(t *testing.T) {
	s, _ := newChaosServer(t, func(c *Config) {
		c.RequestTimeout = 100 * time.Millisecond
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	faultinject.Enable(faultinject.PointParseStall, faultinject.Fault{Delay: time.Minute})

	// Enough entries to cross the parsers' periodic checkpoint.
	const n = 5000
	for _, tc := range []struct {
		contentType string
		body        []byte
	}{
		{"text/matrix-market", bigMM(n)},
		{"application/json", bigJSON(n)},
	} {
		fired := faultinject.Fired(faultinject.PointParseStall)
		start := time.Now()
		code, _, bad := postPredict(t, ts, tc.body, tc.contentType)
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("%s: stalled parse held the request %v", tc.contentType, el)
		}
		if code < 400 || code >= 500 {
			t.Fatalf("%s: stalled parse answered %d, want a 4xx", tc.contentType, code)
		}
		if bad.Error == "" {
			t.Fatalf("%s: empty error body", tc.contentType)
		}
		if faultinject.Fired(faultinject.PointParseStall) == fired {
			t.Fatalf("%s: stall point never fired — the test is not exercising the parser", tc.contentType)
		}
	}
}

// TestChaosAvailabilityNeverZero hammers a server whose CNN rung is
// permanently poisoned: every single response must be a success from a
// lower rung — availability cannot reach zero while any rung stands.
func TestChaosAvailabilityNeverZero(t *testing.T) {
	s, _ := newChaosServer(t, func(c *Config) {
		c.BreakerThreshold = 2
		c.BreakerCooldown = 10 * time.Millisecond // probe frequently, fail every probe
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ts.Client().Transport.(*http.Transport).MaxIdleConnsPerHost = 32

	faultinject.Enable(faultinject.PointPredictPanic, faultinject.Fault{Panic: "permanently poisoned"})

	const clients, perClient = 16, 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				code, resp, bad, err := postPredictErr(ts, matrixJSON(8+(c+i)%13, 1+i%2), "application/json")
				if err != nil {
					t.Error(err)
					return
				}
				if code != http.StatusOK {
					t.Errorf("client %d req %d: status %d (%s)", c, i, code, bad.Error)
					return
				}
				if resp.Rung == rungCNN {
					t.Errorf("client %d req %d: poisoned CNN rung answered", c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	// The pool never saw a panic: injected panics are contained inside
	// the inference goroutine, so workers survive the whole hammering.
	if p := s.pool.Panics(); p != 0 {
		t.Errorf("worker pool recorded %d panics; faults leaked out of the CNN rung", p)
	}
	page := scrapeMetrics(t, ts)
	if v := labeledMetric(page, `serve_rung_total{rung="dtree"}`); v < clients*perClient {
		t.Errorf("dtree rung answered %g of %d requests", v, clients*perClient)
	}
}
