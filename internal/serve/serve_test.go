package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/represent"
	"repro/internal/selector"
	"repro/internal/sparse"
)

// saveTestModel writes a small (untrained — inference-valid weights are
// all a serving test needs) selector model to path using the atomic
// checksummed envelope writer, with a caller-chosen seed so distinct
// seeds produce distinct model artifacts for reload tests.
func saveTestModel(t testing.TB, path string, seed int64) {
	t.Helper()
	cfg := selector.DefaultConfig(represent.KindHistogram, sparse.CPUFormats())
	cfg.Represent.Size = 16
	cfg.Represent.Bins = 8
	cfg.Seed = seed
	s, err := selector.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
}

// newTestServer builds a Server around a fresh model file.
func newTestServer(t testing.TB, mutate func(*Config)) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	model := filepath.Join(dir, "model.gob")
	saveTestModel(t, model, 1)
	cfg := Config{ModelPath: model, CacheSize: 64}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, model
}

// matrixJSON renders an n×n banded matrix as a predict request body.
func matrixJSON(n, band int) []byte {
	var req predictRequest
	req.Rows, req.Cols = n, n
	for i := 0; i < n; i++ {
		for d := -band; d <= band; d++ {
			if j := i + d; j >= 0 && j < n {
				req.Entries = append(req.Entries, [3]float64{float64(i), float64(j), 1})
			}
		}
	}
	b, _ := json.Marshal(req)
	return b
}

func postPredict(t testing.TB, ts *httptest.Server, body []byte, contentType string) (int, response, errorResponse) {
	t.Helper()
	code, ok, bad, err := postPredictErr(ts, body, contentType)
	if err != nil {
		t.Fatal(err)
	}
	return code, ok, bad
}

// postPredictErr is the goroutine-safe variant of postPredict: it
// reports transport and decode failures as an error instead of failing
// the test, so it may be called off the test goroutine.
func postPredictErr(ts *httptest.Server, body []byte, contentType string) (int, response, errorResponse, error) {
	resp, err := ts.Client().Post(ts.URL+"/v1/predict", contentType, bytes.NewReader(body))
	if err != nil {
		return 0, response{}, errorResponse{}, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var ok response
	var bad errorResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &ok); err != nil {
			return resp.StatusCode, ok, bad, fmt.Errorf("bad 200 body %q: %v", data, err)
		}
	} else {
		json.Unmarshal(data, &bad)
	}
	return resp.StatusCode, ok, bad, nil
}

func validFormat(t testing.TB, name string) sparse.Format {
	t.Helper()
	f, err := sparse.ParseFormat(name)
	if err != nil {
		t.Fatalf("server returned unknown format %q", name)
	}
	return f
}

func TestPredictJSON(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, resp, _ := postPredict(t, ts, matrixJSON(24, 2), "application/json")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.FellBack {
		t.Fatalf("unexpected fallback: %s", resp.Reason)
	}
	validFormat(t, resp.Format)
	if len(resp.Probs) != len(sparse.CPUFormats()) {
		t.Fatalf("got %d probs, want %d", len(resp.Probs), len(sparse.CPUFormats()))
	}
	sum := 0.0
	for _, p := range resp.Probs {
		sum += p
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("probabilities sum to %g", sum)
	}
	if resp.ModelGeneration != 1 {
		t.Fatalf("generation %d, want 1", resp.ModelGeneration)
	}
}

func TestPredictMatrixMarket(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	m := sparse.MustCOO(10, 10, []sparse.Entry{
		{Row: 0, Col: 0, Val: 2}, {Row: 4, Col: 5, Val: -1}, {Row: 9, Col: 9, Val: 3},
	})
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	// Once with the dedicated content type, once relying on banner
	// sniffing.
	for _, ct := range []string{"text/matrix-market", "text/plain"} {
		code, resp, _ := postPredict(t, ts, buf.Bytes(), ct)
		if code != http.StatusOK || resp.FellBack {
			t.Fatalf("ct=%s: status %d fellback=%v (%s)", ct, code, resp.FellBack, resp.Reason)
		}
		validFormat(t, resp.Format)
	}
}

func TestPredictRejectsBadBodies(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.MaxBodyBytes = 2048 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := map[string]struct {
		body []byte
		want int
	}{
		"malformed json":    {[]byte(`{"rows": 3`), http.StatusBadRequest},
		"unknown fields":    {[]byte(`{"rows":3,"cols":3,"entries":[],"shape":"x"}`), http.StatusBadRequest},
		"bad dims":          {[]byte(`{"rows":0,"cols":3,"entries":[[0,0,1]]}`), http.StatusBadRequest},
		"out of range":      {[]byte(`{"rows":2,"cols":2,"entries":[[5,0,1]]}`), http.StatusBadRequest},
		"fractional coords": {[]byte(`{"rows":4,"cols":4,"entries":[[0.5,1,1]]}`), http.StatusBadRequest},
		// Resource-cap violations are 413, distinguishable from malformed
		// bodies so clients know whether to fix or shrink the request.
		"oversized body":  {matrixJSON(64, 8), http.StatusRequestEntityTooLarge},
		"too many rows":   {[]byte(`{"rows":2000000000,"cols":3,"entries":[[0,0,1]]}`), http.StatusRequestEntityTooLarge},
		"unsupported mm":  {[]byte("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"), http.StatusUnprocessableEntity},
		"oversized mm":    {[]byte("%%MatrixMarket matrix coordinate real general\n2000000000 2 1\n1 1 1\n"), http.StatusRequestEntityTooLarge},
		"mm wrong count":  {[]byte("%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1\n"), http.StatusBadRequest},
		"mm out of range": {[]byte("%%MatrixMarket matrix coordinate real general\n3 3 1\n4 1 1\n"), http.StatusBadRequest},
	}
	for name, tc := range cases {
		code, _, e := postPredict(t, ts, tc.body, "application/json")
		if code != tc.want {
			t.Errorf("%s: status %d, want %d", name, code, tc.want)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error body", name)
		}
	}
	if code, _, _ := postPredict(t, ts, []byte("%%MatrixMarket matrix coordinate real general\nnot numbers"), "text/plain"); code != http.StatusBadRequest {
		t.Errorf("bad matrix market: status %d, want 400", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET predict: status %d, want 405", resp.StatusCode)
	}
}

// TestPredictEmptyMatrixFallsBack: a structurally valid but empty
// matrix cannot be normalised; the service answers with the CSR
// baseline and says why rather than erroring.
func TestPredictEmptyMatrixFallsBack(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, resp, _ := postPredict(t, ts, []byte(`{"rows":5,"cols":5,"entries":[]}`), "application/json")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !resp.FellBack || resp.Format != selector.FallbackFormat.String() {
		t.Fatalf("want CSR fallback, got %+v", resp)
	}
	if !strings.Contains(resp.Reason, "no nonzeros") {
		t.Fatalf("reason %q", resp.Reason)
	}
}

func TestHealthReadyMetricsEndpoints(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200, "/metrics": 200} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
		if path == "/metrics" && !strings.Contains(string(body), "serve_model_generation 1") {
			t.Errorf("metrics missing generation gauge:\n%s", body)
		}
	}
}

func scrapeMetrics(t testing.TB, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// metricValue extracts a single un-labeled sample value.
func metricValue(t testing.TB, page, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(page, "\n") {
		var v float64
		if n, _ := fmt.Sscanf(line, name+" %g", &v); n == 1 && strings.HasPrefix(line, name+" ") {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, page)
	return 0
}

// jobsExecuted is how many jobs a worker ran through the ladder: every
// executed job answers from exactly one rung.
func jobsExecuted(page string) float64 {
	return labeledMetric(page, `serve_rung_total{rung="cnn"}`) +
		labeledMetric(page, `serve_rung_total{rung="dtree"}`) +
		labeledMetric(page, `serve_rung_total{rung="csr"}`)
}

// TestCacheHitSkipsForwardPass is acceptance-critical: the second
// request for the same sparsity pattern must be answered from the LRU
// cache (visible in /metrics) without another NN forward pass (visible
// as an unchanged executed-job count).
func TestCacheHitSkipsForwardPass(t *testing.T) {
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := matrixJSON(20, 1)
	code, first, _ := postPredict(t, ts, body, "application/json")
	if code != 200 || first.Cached {
		t.Fatalf("first: code %d cached=%v", code, first.Cached)
	}
	jobsAfterMiss := jobsExecuted(scrapeMetrics(t, ts))

	// Same pattern, different values, different entry order: still a hit.
	alt := matrixJSON(20, 1)
	var req predictRequest
	json.Unmarshal(alt, &req)
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(req.Entries), func(i, j int) { req.Entries[i], req.Entries[j] = req.Entries[j], req.Entries[i] })
	for i := range req.Entries {
		req.Entries[i][2] = rng.NormFloat64() + 5
	}
	alt, _ = json.Marshal(req)

	code, second, _ := postPredict(t, ts, alt, "application/json")
	if code != 200 {
		t.Fatalf("second: code %d", code)
	}
	if !second.Cached {
		t.Fatal("second request with identical pattern was not served from cache")
	}
	if second.Format != first.Format {
		t.Fatalf("cache changed the answer: %s vs %s", second.Format, first.Format)
	}

	page := scrapeMetrics(t, ts)
	if hits := metricValue(t, page, "serve_cache_hits_total"); hits < 1 {
		t.Fatalf("cache hits %g, want >= 1", hits)
	}
	if jobs := jobsExecuted(page); jobs != jobsAfterMiss || jobs != 1 {
		t.Fatalf("executed jobs moved %g -> %g (want 1 -> 1): cache hit did not skip the forward pass", jobsAfterMiss, jobs)
	}
}

// postWithHeaders posts a predict body with the router's headers
// attached (X-Retry-Attempt) and returns the raw response plus decoded
// bodies.
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

// TestPredictCoalescesDuplicates: concurrent identical requests share
// one computation (idempotency-by-fingerprint under router retries).
// The retry header only relabels accounting; the duplicate
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

// TestConcurrentClients covers the acceptance load shape: 100
// concurrent clients, each issuing several predictions over a mix of
// patterns, everything answered 200 with a valid format. Run under
// -race (scripts/check.sh) this also proves the queue-and-worker path
// clean.
func TestConcurrentClients(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.CacheSize = 32 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ts.Client().Transport.(*http.Transport).MaxIdleConnsPerHost = 100

	bodies := make([][]byte, 7)
	for i := range bodies {
		bodies[i] = matrixJSON(12+3*i, 1+i%3)
	}

	const clients, perClient = 100, 5
	var wg sync.WaitGroup
	var failures atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				code, resp, bad := postPredict(t, ts, bodies[(c+i)%len(bodies)], "application/json")
				if code != http.StatusOK || resp.FellBack {
					t.Errorf("client %d req %d: code %d fellback=%v err=%s reason=%s",
						c, i, code, resp.FellBack, bad.Error, resp.Reason)
					failures.Add(1)
					return
				}
				if _, err := sparse.ParseFormat(resp.Format); err != nil {
					t.Errorf("client %d req %d: bad format %q", c, i, resp.Format)
					failures.Add(1)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d failed requests", failures.Load())
	}
	page := scrapeMetrics(t, ts)
	// Every request is either an executed job, a cache hit, or coalesced
	// onto an in-flight job for the same fingerprint (single-flight dedup).
	jobs := jobsExecuted(page)
	hits := metricValue(t, page, "serve_cache_hits_total")
	dedup := metricValue(t, page, "serve_dedup_hits_total")
	if jobs+hits+dedup < clients*perClient {
		t.Fatalf("accounting: %g jobs + %g hits + %g coalesced for %d requests", jobs, hits, dedup, clients*perClient)
	}
}

// TestConcurrentMissesRunOnSeparateWorkers: between handler and worker
// there is one queue and nothing that gathers jobs, so four distinct
// cache misses on a four-worker pool are all executing at the same
// moment — each held in the per-job hook until all four have arrived.
func TestConcurrentMissesRunOnSeparateWorkers(t *testing.T) {
	const n = 4
	s, _ := newTestServer(t, func(c *Config) {
		c.CacheSize = 0
		c.Workers = n
	})
	var arrived sync.WaitGroup
	arrived.Add(n)
	all := make(chan struct{})
	go func() { arrived.Wait(); close(all) }()
	s.testHookPreJob = func() {
		arrived.Done()
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			// Fall through: the request completes and the assertion
			// below reports how many jobs ever ran side by side.
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			code, _, _, err := postPredictErr(ts, matrixJSON(14+i, 1), "application/json")
			if err != nil {
				t.Error(err)
			}
			codes <- code
		}(i)
	}
	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("request answered %d, want 200", code)
		}
	}
	select {
	case <-all:
	default:
		t.Fatalf("the %d jobs were never on workers simultaneously", n)
	}
}
