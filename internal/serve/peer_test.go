package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/selector"
	"repro/internal/sparse"
)

// postWithHeaders posts a predict body with cluster headers attached
// (X-Shard-Owner, X-Retry-Attempt) and returns the raw response plus
// decoded bodies.
func postWithHeaders(t testing.TB, ts *httptest.Server, body []byte, hdr map[string]string) (*http.Response, response, errorResponse) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	res, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	data, _ := io.ReadAll(res.Body)
	var ok response
	var bad errorResponse
	if res.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &ok); err != nil {
			t.Fatalf("bad 200 body %q: %v", data, err)
		}
	} else {
		json.Unmarshal(data, &bad)
	}
	return res, ok, bad
}

// newPeerPair builds two replicas: owner (serving on a real listener so
// the peer client can reach it) and follower, whose SelfURL is pinned
// to a distinct identity so an X-Shard-Owner hint naming the owner
// triggers a peer fill.
func newPeerPair(t *testing.T, mutateFollower func(*Config)) (ownerTS, followerTS *httptest.Server) {
	t.Helper()
	owner, _ := newTestServer(t, nil)
	ownerTS = httptest.NewServer(owner.Handler())
	t.Cleanup(ownerTS.Close)
	follower, _ := newTestServer(t, func(c *Config) {
		c.SelfURL = "http://follower.test.invalid"
		if mutateFollower != nil {
			mutateFollower(c)
		}
	})
	followerTS = httptest.NewServer(follower.Handler())
	t.Cleanup(followerTS.Close)
	return ownerTS, followerTS
}

func TestPeerFillHit(t *testing.T) {
	ownerTS, followerTS := newPeerPair(t, nil)
	body := matrixJSON(20, 2)

	// Warm the owner's cache, then ask the follower with the owner hint.
	res, warm, _ := postWithHeaders(t, ownerTS, body, nil)
	if res.StatusCode != http.StatusOK || warm.Rung != rungCNN {
		t.Fatalf("warmup: code %d rung %q", res.StatusCode, warm.Rung)
	}
	res, got, _ := postWithHeaders(t, followerTS, body, map[string]string{"X-Shard-Owner": ownerTS.URL})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("peer-filled request: code %d", res.StatusCode)
	}
	if cs := res.Header.Get("X-Cache-Status"); cs != "peer" {
		t.Fatalf("X-Cache-Status %q, want peer", cs)
	}
	if pf := res.Header.Get("X-Peer-Fill"); pf != "hit" {
		t.Fatalf("X-Peer-Fill %q, want hit", pf)
	}
	if !got.Cached || got.Format != warm.Format {
		t.Fatalf("peer answer cached=%v format=%q, want the owner's cached %q", got.Cached, got.Format, warm.Format)
	}
	page := scrapeMetrics(t, followerTS)
	if v := labeledMetric(page, `serve_peer_fill_total{outcome="hit"}`); v != 1 {
		t.Fatalf("peer fill hit metric %g, want 1", v)
	}
}

func TestPeerFillMissComputesLocally(t *testing.T) {
	ownerTS, followerTS := newPeerPair(t, nil)
	res, got, _ := postWithHeaders(t, followerTS, matrixJSON(24, 1), map[string]string{"X-Shard-Owner": ownerTS.URL})
	if res.StatusCode != http.StatusOK || got.Cached {
		t.Fatalf("code %d cached=%v, want 200 computed locally", res.StatusCode, got.Cached)
	}
	if pf := res.Header.Get("X-Peer-Fill"); pf != "miss" {
		t.Fatalf("X-Peer-Fill %q, want miss", pf)
	}
	if _, err := sparse.ParseFormat(got.Format); err != nil {
		t.Fatalf("bad format %q", got.Format)
	}
}

// TestChaosPeerStallFailsOpen: a stalled shard owner must cost at most
// the peer-fill deadline, never the request — the fill times out and
// the request is answered by local compute well inside its own budget.
func TestChaosPeerStallFailsOpen(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	ownerTS, followerTS := newPeerPair(t, func(c *Config) {
		c.PeerFillTimeout = 50 * time.Millisecond
	})
	faultinject.Enable(faultinject.PointPeerStall, faultinject.Fault{Delay: 10 * time.Second})

	start := time.Now()
	res, got, _ := postWithHeaders(t, followerTS, matrixJSON(18, 2), map[string]string{"X-Shard-Owner": ownerTS.URL})
	elapsed := time.Since(start)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("stalled peer leaked into the answer: code %d", res.StatusCode)
	}
	if pf := res.Header.Get("X-Peer-Fill"); pf != "timeout" {
		t.Fatalf("X-Peer-Fill %q, want timeout", pf)
	}
	if got.Cached {
		t.Fatal("timed-out fill still claimed a cached answer")
	}
	// Generous bound: the fill may cost its 50ms deadline, the answer
	// must not wait out the 10s stall.
	if elapsed > 5*time.Second {
		t.Fatalf("request took %v under a stalled peer", elapsed)
	}
	page := scrapeMetrics(t, followerTS)
	if v := labeledMetric(page, `serve_peer_fill_total{outcome="timeout"}`); v != 1 {
		t.Fatalf("peer fill timeout metric %g, want 1", v)
	}
}

// TestChaosPeerErrorFailsOpen: a dead or refusing shard owner is an
// immediate fail-open to local compute.
func TestChaosPeerErrorFailsOpen(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	ownerTS, followerTS := newPeerPair(t, nil)
	faultinject.Enable(faultinject.PointPeerError, faultinject.Fault{Err: faultinject.ErrInjected})

	res, got, _ := postWithHeaders(t, followerTS, matrixJSON(18, 2), map[string]string{"X-Shard-Owner": ownerTS.URL})
	if res.StatusCode != http.StatusOK || got.Cached {
		t.Fatalf("code %d cached=%v, want 200 computed locally", res.StatusCode, got.Cached)
	}
	if pf := res.Header.Get("X-Peer-Fill"); pf != "error" {
		t.Fatalf("X-Peer-Fill %q, want error", pf)
	}
	page := scrapeMetrics(t, followerTS)
	if v := labeledMetric(page, `serve_peer_fill_total{outcome="error"}`); v != 1 {
		t.Fatalf("peer fill error metric %g, want 1", v)
	}
}

// TestPeerFillSkippedWithoutIdentity: a replica that never learned its
// own URL cannot tell whether the hint names itself, so it must skip
// the fill entirely (no outcome header, no metric).
func TestPeerFillSkippedWithoutIdentity(t *testing.T) {
	s, _ := newTestServer(t, nil) // SelfURL never set; Serve() not used
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	res, _, _ := postWithHeaders(t, ts, matrixJSON(16, 1), map[string]string{"X-Shard-Owner": "http://other.test.invalid"})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("code %d", res.StatusCode)
	}
	if pf := res.Header.Get("X-Peer-Fill"); pf != "" {
		t.Fatalf("X-Peer-Fill %q, want no attempt", pf)
	}
}

func TestCacheLookupEndpoint(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(query string) (*http.Response, []byte) {
		res, err := ts.Client().Get(ts.URL + "/v1/cache" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		data, _ := io.ReadAll(res.Body)
		return res, data
	}

	if res, _ := get("?fp=not-a-number"); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad fp: code %d, want 400", res.StatusCode)
	}
	if res, _ := get("?fp=12345"); res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fp: code %d, want 404", res.StatusCode)
	}

	s.cache.Add(42, selector.Prediction{Format: sparse.FormatCSR}, s.Generation())
	res, data := get("?fp=" + strconv.FormatUint(42, 10))
	if res.StatusCode != http.StatusOK {
		t.Fatalf("cached fp: code %d, want 200", res.StatusCode)
	}
	var got response
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("bad body %q: %v", data, err)
	}
	if !got.Cached || got.Rung != rungCNN || got.Format != sparse.FormatCSR.String() {
		t.Fatalf("cached=%v rung=%q format=%q", got.Cached, got.Rung, got.Format)
	}
}

// TestReadyzReportsRung pins the degraded-readiness contract the
// router's prober parses: 200 rung=cnn healthy, 200 rung=dtree while
// the breaker is open but the tree stands, 503 when the ladder is down
// to the CSR floor.
func TestReadyzReportsRung(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.BreakerThreshold = 1 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	readyz := func() (int, string) {
		res, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		data, _ := io.ReadAll(res.Body)
		return res.StatusCode, string(data)
	}

	if code, body := readyz(); code != http.StatusOK || body != "ready rung=cnn\n" {
		t.Fatalf("healthy: %d %q", code, body)
	}
	s.breaker.Failure() // threshold 1: breaker opens, tree rung takes over
	if code, body := readyz(); code != http.StatusOK || body != "ready rung=dtree\n" {
		t.Fatalf("degraded: %d %q, want 200 rung=dtree", code, body)
	}
	s.dtree = nil // hard-down: no middle rung left
	if code, body := readyz(); code != http.StatusServiceUnavailable || body != "degraded rung=csr\n" {
		t.Fatalf("hard-down: %d %q, want 503 rung=csr", code, body)
	}
}

// TestPredictCoalescesDuplicates: concurrent identical requests share
// one computation (idempotency-by-fingerprint under router retries and
// hedges). The retry header only relabels accounting; the duplicate
// never costs a second forward pass.
func TestPredictCoalescesDuplicates(t *testing.T) {
	hold := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	s, _ := newTestServer(t, nil)
	s.testHookPreJob = func() {
		once.Do(func() { close(entered) })
		<-hold
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := matrixJSON(30, 2)

	type result struct {
		res *http.Response
		ok  response
	}
	results := make(chan result, 4)
	go func() {
		res, ok, _ := postWithHeaders(t, ts, body, nil)
		results <- result{res, ok}
	}()
	<-entered // leader is on a worker, its fingerprint registered in flight

	// Router-style duplicates: same body, attempt header set.
	for i := 0; i < 3; i++ {
		go func() {
			res, ok, _ := postWithHeaders(t, ts, body, map[string]string{"X-Retry-Attempt": "1"})
			results <- result{res, ok}
		}()
	}
	// Let the duplicates attach to the in-flight call before releasing
	// the worker.
	deadline := time.After(5 * time.Second)
	for {
		var v float64
		page := scrapeMetrics(t, ts)
		v = metricValue(t, page, "serve_dedup_hits_total")
		if v >= 3 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("only %g duplicates coalesced", v)
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(hold)

	coalesced := 0
	var format string
	for i := 0; i < 4; i++ {
		r := <-results
		if r.res.StatusCode != http.StatusOK {
			t.Fatalf("request %d: code %d", i, r.res.StatusCode)
		}
		if format == "" {
			format = r.ok.Format
		} else if r.ok.Format != format {
			t.Fatalf("answers diverged: %q vs %q", r.ok.Format, format)
		}
		if r.ok.Coalesced {
			coalesced++
		}
	}
	if coalesced != 3 {
		t.Fatalf("%d coalesced answers, want 3", coalesced)
	}
	page := scrapeMetrics(t, ts)
	if jobs := jobsExecuted(page); jobs != 1 {
		t.Fatalf("%g forward passes for 4 identical requests, want 1", jobs)
	}
	if v := labeledMetric(page, `serve_requests_total{code="200",endpoint="predict",retried="true"}`); v != 3 {
		t.Fatalf("retried request metric %g, want 3", v)
	}
}
