package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/robust"
	"repro/internal/serve"
)

// fakeReplica is a scriptable backend: it answers /readyz and
// /v1/predict from configurable state and records the cluster headers
// it saw.
type fakeReplica struct {
	ts *httptest.Server

	mu          sync.Mutex
	predictCode int           // status for /v1/predict (200 default)
	predictBody string        // body for /v1/predict
	delay       time.Duration // per-predict latency
	readyCode   int           // status for /readyz (200 default)
	readyBody   string

	hits      atomic.Int64
	retries   []string // X-Retry-Attempt header per predict hit
	deadlines []string // X-Request-Deadline header per predict hit

	predictHeader http.Header // extra headers for /v1/predict answers
}

func newFakeReplica(t *testing.T) *fakeReplica {
	t.Helper()
	f := &fakeReplica{predictCode: http.StatusOK, predictBody: `{"format":"CSR","rung":"cnn","fell_back":false,"cached":false,"model_generation":1}`, readyCode: http.StatusOK, readyBody: "ready rung=cnn\n"}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		code, body := f.readyCode, f.readyBody
		f.mu.Unlock()
		w.WriteHeader(code)
		io.WriteString(w, body)
	})
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		// Read the body as a replica does: only then does the server
		// watch the connection, so a router that gives up on the attempt
		// cancels r.Context() and ends a delayed answer early.
		io.Copy(io.Discard, r.Body)
		f.mu.Lock()
		f.retries = append(f.retries, r.Header.Get("X-Retry-Attempt"))
		f.deadlines = append(f.deadlines, r.Header.Get("X-Request-Deadline"))
		code, body, delay := f.predictCode, f.predictBody, f.delay
		extra := f.predictHeader
		f.mu.Unlock()
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-r.Context().Done():
				return
			}
		}
		for k, vs := range extra {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		io.WriteString(w, body)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeReplica) set(mutate func(*fakeReplica)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mutate(f)
}

func (f *fakeReplica) url() string { return f.ts.URL }

// newTestRouter builds a router over the given fakes with fast probe
// and breaker settings.
func newTestRouter(t *testing.T, mutate func(*Config), fakes ...*fakeReplica) (*Router, *httptest.Server) {
	t.Helper()
	urls := make([]string, len(fakes))
	for i, f := range fakes {
		urls[i] = f.url()
	}
	cfg := Config{
		Replicas:         urls,
		ProbeInterval:    25 * time.Millisecond,
		ProbeTimeout:     250 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
		HalfOpenProbes:   2,
		Retries:          2,
		Backoff:          time.Millisecond,
		RequestTimeout:   5 * time.Second,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// predictBody is a small well-formed request the router can decode.
func predictBody(seed int) []byte {
	entries := [][3]float64{}
	for i := 0; i < 4+seed%5; i++ {
		entries = append(entries, [3]float64{float64(i), float64((i + seed) % 8), 1})
	}
	b, _ := json.Marshal(map[string]any{"rows": 8, "cols": 8, "entries": entries})
	return b
}

func postRouter(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, []byte) {
	t.Helper()
	res, err := ts.Client().Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	data, _ := io.ReadAll(res.Body)
	return res, data
}

func scrapeRouter(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	res, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	data, _ := io.ReadAll(res.Body)
	return string(data)
}

// metricSample extracts one sample value (labeled series: pass the full
// rendered series; unlabeled: the bare name).
func metricSample(page, series string) float64 {
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, series+" ") {
			var v float64
			fmt.Sscanf(strings.TrimPrefix(line, series+" "), "%g", &v)
			return v
		}
	}
	return 0
}

// metricSum totals every series of a labeled metric family.
func metricSum(page, name string) float64 {
	var total float64
	for _, line := range strings.Split(page, "\n") {
		if !strings.HasPrefix(line, name+"{") {
			continue
		}
		if i := strings.LastIndex(line, " "); i >= 0 {
			var v float64
			fmt.Sscanf(line[i+1:], "%g", &v)
			total += v
		}
	}
	return total
}

func TestRouterRoutesWithShardHint(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	rt, ts := newTestRouter(t, nil, a, b)

	// The same fingerprint keeps landing on the replica the ring names
	// as its owner — that is what shards the caches.
	for seed := 0; seed < 4; seed++ {
		body, fp := fingerprintedBody(t, seed)
		for i := 0; i < 3; i++ {
			res, data := postRouter(t, ts, body)
			if res.StatusCode != http.StatusOK {
				t.Fatalf("code %d body %s", res.StatusCode, data)
			}
			if got, want := res.Header.Get("X-Served-By"), rt.Owner(fp); got != want {
				t.Fatalf("seed %d served by %q, want shard owner %q", seed, got, want)
			}
		}
	}
}

func TestRouterRejectsMalformedAtEdge(t *testing.T) {
	a := newFakeReplica(t)
	_, ts := newTestRouter(t, nil, a)
	res, _ := postRouter(t, ts, []byte(`{"rows": -3}`))
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("code %d, want 400", res.StatusCode)
	}
	if a.hits.Load() != 0 {
		t.Fatal("malformed body reached a replica")
	}
	// Method and size rejections too.
	gr, err := ts.Client().Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: code %d, want 405", gr.StatusCode)
	}
	_, small := newTestRouter(t, func(c *Config) { c.MaxBodyBytes = 32 }, a)
	if res, _ := postRouter(t, small, predictBody(1)); res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: code %d, want 413", res.StatusCode)
	}
	if a.hits.Load() != 0 {
		t.Fatal("oversized body reached a replica")
	}
}

func TestRouterRetriesAcrossReplicasOn5xx(t *testing.T) {
	sick, healthy := newFakeReplica(t), newFakeReplica(t)
	sick.set(func(f *fakeReplica) {
		f.predictCode = http.StatusInternalServerError
		f.predictBody = `{"error":"boom"}`
	})
	rt, ts := newTestRouter(t, nil, sick, healthy)
	sickRep := replicaByURL(rt, sick.url())

	// Which replica a body tries first is its fingerprint's rank over
	// the two replica URLs, whose ports change from run to run. Choose
	// the bodies by that rank: three the ring sends to the sick replica
	// first, sent first, then three it sends to the healthy one.
	var sickFirst, healthyFirst [][]byte
	for seed := 0; seed < 40 && (len(sickFirst) < 3 || len(healthyFirst) < 3); seed++ {
		body := predictBody(seed)
		sc, err := serve.ScanMatrix(context.Background(), body, "application/json", rt.cfg.Limits)
		if err != nil {
			t.Fatal(err)
		}
		if rt.ring.rank(sc.Fingerprint())[0] == sickRep {
			if len(sickFirst) < 3 {
				sickFirst = append(sickFirst, body)
			}
		} else if len(healthyFirst) < 3 {
			healthyFirst = append(healthyFirst, body)
		}
	}
	if len(sickFirst) == 0 {
		t.Fatal("no body ranks the sick replica first")
	}

	// Every request must end on the healthy replica with a 200, and each
	// one that starts on the sick replica while its breaker is still
	// closed (the first always does) must take one upstream retry.
	upstream := 0.0
	for i, body := range append(sickFirst, healthyFirst...) {
		closed := sickRep.breaker.State() == robust.BreakerClosed
		res, data := postRouter(t, ts, body)
		if res.StatusCode != http.StatusOK {
			t.Fatalf("req %d: code %d body %s", i, res.StatusCode, data)
		}
		if got := res.Header.Get("X-Served-By"); got != healthy.url() {
			t.Fatalf("req %d served by %q", i, got)
		}
		got := metricSample(scrapeRouter(t, ts), `router_retries_total{reason="upstream"}`)
		if i < len(sickFirst) && closed && got != upstream+1 {
			t.Fatalf("req %d ranked the sick replica first with its breaker closed: upstream retries %v -> %v, want one more", i, upstream, got)
		}
		upstream = got
	}
	if upstream == 0 {
		t.Fatal("5xx retries not classified as upstream")
	}
}

func TestRouterSheds429WithoutBreakerPenalty(t *testing.T) {
	shedding, healthy := newFakeReplica(t), newFakeReplica(t)
	shedding.set(func(f *fakeReplica) { f.predictCode = http.StatusTooManyRequests; f.predictBody = `{"error":"shed"}` })
	rt, ts := newTestRouter(t, nil, shedding, healthy)

	for i := 0; i < 8; i++ {
		res, _ := postRouter(t, ts, predictBody(i))
		if res.StatusCode != http.StatusOK {
			t.Fatalf("req %d: code %d", i, res.StatusCode)
		}
	}
	// Shedding is an answer, not a failure: the shedding replica must
	// still be in rotation (probes also pass).
	for _, rep := range rt.Replicas() {
		if rep.URL() == shedding.url() && rep.state() == stateDown {
			t.Fatal("429 shedding condemned the replica")
		}
	}
}

func TestRouterRelays4xxImmediately(t *testing.T) {
	// A replica-side 404/413-style answer is the client's problem, not
	// grounds for retry.
	a, b := newFakeReplica(t), newFakeReplica(t)
	for _, f := range []*fakeReplica{a, b} {
		f.set(func(f *fakeReplica) { f.predictCode = http.StatusUnprocessableEntity; f.predictBody = `{"error":"no"}` })
	}
	_, ts := newTestRouter(t, nil, a, b)
	res, _ := postRouter(t, ts, predictBody(3))
	if res.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("code %d, want 422 relayed", res.StatusCode)
	}
	if a.hits.Load()+b.hits.Load() != 1 {
		t.Fatalf("%d attempts for a 4xx answer, want 1", a.hits.Load()+b.hits.Load())
	}
}

func TestRouterAllReplicasDownAnswers502(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	for _, f := range []*fakeReplica{a, b} {
		f.set(func(f *fakeReplica) { f.predictCode = http.StatusInternalServerError })
	}
	_, ts := newTestRouter(t, nil, a, b)
	res, _ := postRouter(t, ts, predictBody(1))
	if res.StatusCode != http.StatusBadGateway {
		t.Fatalf("code %d, want 502", res.StatusCode)
	}
}

func TestRouterMarksRetriesForReplicas(t *testing.T) {
	sick, healthy := newFakeReplica(t), newFakeReplica(t)
	sick.set(func(f *fakeReplica) { f.predictCode = http.StatusInternalServerError })
	_, ts := newTestRouter(t, nil, sick, healthy)

	// Drive until the healthy replica has taken a retried request (the
	// ranking decides which requests start on the sick one).
	deadline := time.Now().Add(5 * time.Second)
	for {
		postRouter(t, ts, predictBody(int(time.Now().UnixNano()%97)))
		healthy.mu.Lock()
		var marked bool
		for _, r := range healthy.retries {
			if r != "" {
				marked = true
			}
		}
		healthy.mu.Unlock()
		if marked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no retried request ever carried X-Retry-Attempt")
		}
	}
}

// ownedBody returns a predict body whose fingerprint the ring ranks
// first onto the replica at url.
func ownedBody(t *testing.T, rt *Router, url string) []byte {
	t.Helper()
	for seed := 0; seed < 64; seed++ {
		body, fp := fingerprintedBody(t, seed)
		if rt.ring.rank(fp)[0].URL() == url {
			return body
		}
	}
	t.Fatalf("no seed ranks %s first", url)
	return nil
}

// TestRouterFailsOverStalledOwner: an owner that stalls past its share
// of the deadline loses the attempt, and the successor answers inside
// RequestTimeout on the second one.
func TestRouterFailsOverStalledOwner(t *testing.T) {
	stalled, successor := newFakeReplica(t), newFakeReplica(t)
	stalled.set(func(f *fakeReplica) { f.delay = 10 * time.Second })
	const timeout = 900 * time.Millisecond
	rt, ts := newTestRouter(t, func(c *Config) { c.RequestTimeout = timeout }, stalled, successor)
	body := ownedBody(t, rt, stalled.url())

	start := time.Now()
	res, data := postRouter(t, ts, body)
	elapsed := time.Since(start)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("code %d body %s", res.StatusCode, data)
	}
	if got := res.Header.Get("X-Served-By"); got != successor.url() {
		t.Fatalf("served by %q, want the successor %q", got, successor.url())
	}
	if got := res.Header.Get("X-Router-Attempts"); got != "2" {
		t.Fatalf("X-Router-Attempts %q, want 2", got)
	}
	if elapsed >= timeout {
		t.Fatalf("answered in %v, past the %v request timeout", elapsed, timeout)
	}
	if v := metricSample(scrapeRouter(t, ts), "router_failovers_total"); v != 1 {
		t.Fatalf("router_failovers_total %g, want 1", v)
	}
}

// TestRouterWaitsForSlowOwnerInsideShare: an owner slow but inside its
// share of the deadline answers the one attempt; nothing duplicates the
// request onto another replica.
func TestRouterWaitsForSlowOwnerInsideShare(t *testing.T) {
	slow, other := newFakeReplica(t), newFakeReplica(t)
	slow.set(func(f *fakeReplica) { f.delay = 100 * time.Millisecond })
	rt, ts := newTestRouter(t, nil, slow, other)
	body := ownedBody(t, rt, slow.url())

	res, data := postRouter(t, ts, body)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("code %d body %s", res.StatusCode, data)
	}
	if got := res.Header.Get("X-Served-By"); got != slow.url() {
		t.Fatalf("served by %q, want the slow owner %q", got, slow.url())
	}
	if got := res.Header.Get("X-Router-Attempts"); got != "1" {
		t.Fatalf("X-Router-Attempts %q, want 1", got)
	}
	if hits := slow.hits.Load() + other.hits.Load(); hits != 1 {
		t.Fatalf("%d replica hits, want 1: the request was duplicated", hits)
	}
}

func TestRouterReadyz(t *testing.T) {
	a := newFakeReplica(t)
	rt, ts := newTestRouter(t, nil, a)
	// Wait for the first probe to pass.
	waitFor(t, 2*time.Second, func() bool {
		for _, rep := range rt.Replicas() {
			if rep.state() == stateHealthy {
				return true
			}
		}
		return false
	})
	res, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || !strings.Contains(string(data), "replicas=1/1") {
		t.Fatalf("readyz: %d %q", res.StatusCode, data)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
