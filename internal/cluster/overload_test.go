package cluster

import (
	"fmt"
	"net/http"
	"strconv"
	"testing"
	"time"
)

func TestRetryBudgetBucket(t *testing.T) {
	b := newRetryBudget(0.5, 2)
	// Starts full: burst withdrawals succeed, then it is dry.
	if !b.withdraw() || !b.withdraw() {
		t.Fatal("fresh budget refused withdrawals inside burst")
	}
	if b.withdraw() {
		t.Fatal("dry budget granted a withdrawal")
	}
	// Two successes deposit 2*0.5 = 1 token.
	b.deposit()
	b.deposit()
	if !b.withdraw() {
		t.Fatal("deposits did not refill the budget")
	}
	if b.withdraw() {
		t.Fatal("withdraw exceeded the deposited balance")
	}
	// Deposits cap at burst.
	for i := 0; i < 100; i++ {
		b.deposit()
	}
	if got := b.balance(); got != 2 {
		t.Fatalf("balance %g after heavy deposits, want burst cap 2", got)
	}
}

// TestRouterRetryBudgetStopsRetries: with every replica broken, the
// token bucket — not the per-request Retries knob — bounds total
// relaunches: once it runs dry, each request costs exactly one attempt.
// A non-positive RetryBudgetRatio means the default ratio, so it cannot
// switch the budget off.
func TestRouterRetryBudgetStopsRetries(t *testing.T) {
	for _, ratio := range []float64{0, -1} {
		t.Run(fmt.Sprintf("ratio=%g", ratio), func(t *testing.T) {
			a, b := newFakeReplica(t), newFakeReplica(t)
			for _, f := range []*fakeReplica{a, b} {
				f.set(func(f *fakeReplica) {
					f.predictCode = http.StatusInternalServerError
					f.predictBody = `{"error":"boom"}`
				})
			}
			_, ts := newTestRouter(t, func(c *Config) { c.RetryBudgetBurst, c.RetryBudgetRatio = 1, ratio }, a, b)

			for i := 0; i < 3; i++ {
				res, _ := postRouter(t, ts, predictBody(i))
				if res.StatusCode != http.StatusBadGateway {
					t.Fatalf("req %d: code %d, want 502", i, res.StatusCode)
				}
			}
			// 3 first attempts plus the single funded retry.
			if hits := a.hits.Load() + b.hits.Load(); hits != 4 {
				t.Fatalf("%d outbound attempts, want 4 (budget of 1 retry)", hits)
			}
			page := scrapeRouter(t, ts)
			if v := metricSum(page, "router_retries_total"); v != 1 {
				t.Fatalf("router_retries_total %g, want 1", v)
			}
			if v := metricSample(page, "router_retry_budget_exhausted_total"); v < 2 {
				t.Fatalf("router_retry_budget_exhausted_total %g, want >= 2", v)
			}
		})
	}
}

// TestRouterHonorsRetryAfterOverDeadline: when a shed answer's
// Retry-After exceeds what is left of the request deadline, the router
// relays the shed immediately instead of burning more attempts.
func TestRouterHonorsRetryAfterOverDeadline(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	for _, f := range []*fakeReplica{a, b} {
		f.set(func(f *fakeReplica) {
			f.predictCode = http.StatusTooManyRequests
			f.predictBody = `{"error":"shed"}`
			f.predictHeader = http.Header{"Retry-After": []string{"60"}}
		})
	}
	_, ts := newTestRouter(t, nil, a, b)

	res, _ := postRouter(t, ts, predictBody(2))
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("code %d, want 429 relayed", res.StatusCode)
	}
	if got := res.Header.Get("Retry-After"); got != "60" {
		t.Fatalf("Retry-After %q, want 60 relayed", got)
	}
	if hits := a.hits.Load() + b.hits.Load(); hits != 1 {
		t.Fatalf("%d attempts, want 1: Retry-After 60s cannot fit a 5s deadline", hits)
	}
}

// TestRouterPacesRetryWithRetryAfter: a fitting Retry-After stretches
// the backoff before the relaunch instead of suppressing it.
func TestRouterPacesRetryWithRetryAfter(t *testing.T) {
	shedding, healthy := newFakeReplica(t), newFakeReplica(t)
	shedding.set(func(f *fakeReplica) {
		f.predictCode = http.StatusTooManyRequests
		f.predictBody = `{"error":"shed"}`
		f.predictHeader = http.Header{"Retry-After": []string{"1"}}
	})
	rt, ts := newTestRouter(t, nil, shedding, healthy)

	// A body whose shard owner is the shedding replica, so the first
	// attempt is shed and the retry must be paced.
	body := ownedBody(t, rt, shedding.url())
	start := time.Now()
	res, _ := postRouter(t, ts, body)
	elapsed := time.Since(start)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("code %d, want 200 via paced retry", res.StatusCode)
	}
	if elapsed < 900*time.Millisecond {
		t.Fatalf("answered in %v; the 1s Retry-After was not honored", elapsed)
	}
	page := scrapeRouter(t, ts)
	if v := metricSample(page, `router_retries_total{reason="shed"}`); v == 0 {
		t.Fatal("shed retry not counted under reason=shed")
	}
	if v := metricSample(page, "router_retry_after_waits_total"); v == 0 {
		t.Fatal("paced retry not counted in router_retry_after_waits_total")
	}
}

// TestRouterPropagatesDeadline: every outbound attempt tells the
// replica how much time the request has left via X-Request-Deadline.
func TestRouterPropagatesDeadline(t *testing.T) {
	a := newFakeReplica(t)
	_, ts := newTestRouter(t, func(c *Config) { c.RequestTimeout = 2 * time.Second }, a)

	before := time.Now()
	res, _ := postRouter(t, ts, predictBody(1))
	if res.StatusCode != http.StatusOK {
		t.Fatalf("code %d", res.StatusCode)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.deadlines) == 0 || a.deadlines[0] == "" {
		t.Fatal("no X-Request-Deadline header reached the replica")
	}
	ms, err := strconv.ParseInt(a.deadlines[0], 10, 64)
	if err != nil {
		t.Fatalf("X-Request-Deadline %q not unix millis: %v", a.deadlines[0], err)
	}
	dl := time.UnixMilli(ms)
	if dl.Before(before) || dl.After(before.Add(3*time.Second)) {
		t.Fatalf("deadline %v outside (now, now+2s] window", dl)
	}
}

// TestRouterRelaysFinal503: a unanimous 503 (draining fleet) reaches
// the client as a 503 with its Retry-After, not a synthesized 502.
func TestRouterRelaysFinal503(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	for _, f := range []*fakeReplica{a, b} {
		f.set(func(f *fakeReplica) {
			f.predictCode = http.StatusServiceUnavailable
			f.predictBody = `{"error":"draining"}`
			f.predictHeader = http.Header{"Retry-After": []string{"30"}}
		})
	}
	_, ts := newTestRouter(t, nil, a, b)

	res, data := postRouter(t, ts, predictBody(5))
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("code %d body %s, want 503 relayed", res.StatusCode, data)
	}
	if got := res.Header.Get("Retry-After"); got != "30" {
		t.Fatalf("Retry-After %q, want 30 relayed", got)
	}
}

// TestRouterNoTargetNoRetryCost: a retry is paid for only when it can
// be launched. Two replicas shedding with Retry-After: 1 under the
// default two retries cost one paced wait, one budget token and one
// counted retry for the two attempts there are replicas for; the second
// refusal is relayed at once.
func TestRouterNoTargetNoRetryCost(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	for _, f := range []*fakeReplica{a, b} {
		f.set(func(f *fakeReplica) {
			f.predictCode = http.StatusTooManyRequests
			f.predictBody = `{"error":"shed"}`
			f.predictHeader = http.Header{"Retry-After": []string{"1"}}
		})
	}
	_, ts := newTestRouter(t, nil, a, b)

	start := time.Now()
	res, _ := postRouter(t, ts, predictBody(3))
	elapsed := time.Since(start)
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("code %d, want 429 relayed", res.StatusCode)
	}
	if got := res.Header.Get("X-Router-Attempts"); got != "2" {
		t.Fatalf("X-Router-Attempts %q, want 2", got)
	}
	if elapsed < 900*time.Millisecond || elapsed > 1800*time.Millisecond {
		t.Fatalf("answered in %v, want about 1s: one Retry-After wait, none for a retry with no replica left", elapsed)
	}
	page := scrapeRouter(t, ts)
	if v := metricSample(page, "router_retry_budget_tokens"); v != 9 {
		t.Fatalf("router_retry_budget_tokens %g, want 9 (one retry launched)", v)
	}
	if v := metricSample(page, `router_retries_total{reason="shed"}`); v != 1 {
		t.Fatalf(`router_retries_total{reason="shed"} %g, want 1`, v)
	}
}
