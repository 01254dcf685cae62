package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// admClock is a lockable fake clock for driving admission intervals.
type admClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *admClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *admClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestAdmission(target time.Duration, mutate func(*Config)) (*admission, *admClock) {
	cfg := Config{SLOTargetP99: target}
	cfg.defaults()
	if mutate != nil {
		mutate(&cfg)
	}
	a := newAdmission(cfg)
	clk := &admClock{t: time.Unix(1_700_000_000, 0)}
	a.now = clk.now
	a.winStart = clk.now()
	return a, clk
}

// TestBrownoutEngagesAndRecovers drives the controller's hysteresis
// directly: sustained over-SLO completions engage after brownoutEngage
// hot intervals, quiet in-SLO traffic recovers after brownoutRecover
// cool intervals, and the transition hook fires once per edge.
func TestBrownoutEngagesAndRecovers(t *testing.T) {
	target := 100 * time.Millisecond
	a, clk := newTestAdmission(target, nil)
	var transitions []bool
	a.onBrownout = func(engaged bool) { transitions = append(transitions, engaged) }

	// Every completion blows the SLO: each interval close sees
	// overFrac = 1 > 0.5 and counts hot.
	hotTick := func() {
		a.finish(10*target, true)
		clk.advance(brownoutInterval + time.Millisecond)
	}
	for i := 0; i < brownoutEngage+2; i++ {
		hotTick()
	}
	if !a.brownedOut() {
		t.Fatalf("brownout not engaged after %d hot intervals", brownoutEngage+2)
	}
	if len(transitions) != 1 || !transitions[0] {
		t.Fatalf("transitions = %v, want [true]", transitions)
	}

	// Fast, in-SLO completions with no shedding cool the controller
	// down; recovery needs brownoutRecover consecutive cool intervals.
	coolTick := func() {
		a.finish(target/10, true)
		clk.advance(brownoutInterval + time.Millisecond)
	}
	for i := 0; i < brownoutRecover+2; i++ {
		coolTick()
	}
	if a.brownedOut() {
		t.Fatal("brownout still engaged after sustained cool intervals")
	}
	if len(transitions) != 2 || transitions[1] {
		t.Fatalf("transitions = %v, want [true false]", transitions)
	}
}

// TestBrownoutHysteresisIgnoresBlips: a single hot interval in a calm
// stream must not engage.
func TestBrownoutHysteresisIgnoresBlips(t *testing.T) {
	target := 100 * time.Millisecond
	a, clk := newTestAdmission(target, nil)
	tick := func(lat time.Duration) {
		a.finish(lat, true)
		clk.advance(brownoutInterval + time.Millisecond)
	}
	tick(target / 10)
	tick(10 * target) // one bad interval
	tick(target / 10)
	tick(target / 10)
	if a.brownedOut() {
		t.Fatal("single hot interval engaged brownout despite hysteresis")
	}
}

// TestAdmissionDeadlineShed: once drain rate and service time are
// known, a request whose deadline cannot cover the expected wait is
// refused with errDeadlineTooTight, and Retry-After tracks the backlog
// drain estimate.
func TestAdmissionDeadlineShed(t *testing.T) {
	a, _ := newTestAdmission(200*time.Millisecond, nil)
	// Seed the drain estimate directly: 1 job/s.
	a.mu.Lock()
	a.drain = 1
	a.mu.Unlock()
	// Build a 5-job backlog.
	for i := 0; i < 5; i++ {
		if !a.lim.Acquire() {
			t.Fatal("limiter refused backlog slot")
		}
	}
	// 5 jobs at 1 job/s is a ~5s wait; a 100ms deadline cannot make it.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := a.admit(ctx); !errors.Is(err, errDeadlineTooTight) {
		t.Fatalf("admit with hopeless deadline = %v, want errDeadlineTooTight", err)
	}
	// A deadline with room is admitted.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	if err := a.admit(ctx2); err != nil {
		t.Fatalf("admit with ample deadline = %v, want nil", err)
	}
	if got := a.retryAfterSeconds(); got < 5 || got > 10 {
		t.Fatalf("retryAfterSeconds = %d, want ~6 (backlog 6 / drain 1, clamped to 10)", got)
	}
}

// TestAdmissionDeadlineFailsOpenWhenIdle is the shed-death-spiral
// regression test: a collapse episode leaves the drain estimate
// polluted, but once the system is empty the deadline check must fail
// open. Refusing here would wedge the server — nothing admitted means
// no completions, no completions means the stale estimate never heals.
func TestAdmissionDeadlineFailsOpenWhenIdle(t *testing.T) {
	a, _ := newTestAdmission(200*time.Millisecond, nil)
	a.mu.Lock()
	a.drain = 0.01 // post-collapse pollution: one job per 100 seconds
	a.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := a.admit(ctx); err != nil {
		t.Fatalf("admit on an empty system = %v, want nil (deadline check fails open)", err)
	}
	a.finish(10*time.Millisecond, true)
}

// TestShedOnlyIntervalsKeepDrainEstimate: intervals that shed without
// serving anything (an empty system refusing load) must not decay the
// drain-rate estimate — sheds carry no information about drain speed,
// and decaying on them turns one bad episode into a permanent one.
func TestShedOnlyIntervalsKeepDrainEstimate(t *testing.T) {
	a, clk := newTestAdmission(200*time.Millisecond, nil)
	a.mu.Lock()
	a.drain = 50
	a.mu.Unlock()
	for i := 0; i < 5; i++ {
		a.shed()
		clk.advance(brownoutInterval + time.Millisecond)
		a.shed()
	}
	a.mu.Lock()
	got := a.drain
	a.mu.Unlock()
	if got != 50 {
		t.Fatalf("drain estimate %g after shed-only intervals, want 50 unchanged", got)
	}
}

// TestAdmissionShedsWith429: with the overload plane on and the lone
// worker parked, the adaptive limiter (ceiling = queue depth) refuses
// the overflow with 429 + Retry-After, visible in
// serve_admission_rejects_total{reason="queue"}.
func TestAdmissionShedsWith429(t *testing.T) {
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	s, _ := newTestServer(t, func(c *Config) {
		c.CacheSize = 0
		c.Workers = 1
		c.QueueDepth = 2
		c.SLOTargetP99 = 2 * time.Second
	})
	entered := make(chan struct{}, 16)
	s.testHookPreJob = func() {
		entered <- struct{}{}
		<-hold
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { release(); ts.Close() }()
	ts.Client().Transport.(*http.Transport).MaxIdleConnsPerHost = 16

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
		resp.Body.Close()
		results <- result{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
	}
	go post(0)
	<-entered // worker parked, holding one admission slot

	const extra = 5
	for i := 1; i <= extra; i++ {
		go post(i)
	}
	// Limit = ceiling = 2: one more job is admitted to the queue (it
	// completes only after release), the rest shed with 429 right away.
	var shed429 int
	var sawRetryAfter bool
	for i := 0; i < extra-1; i++ {
		r := <-results
		if r.code != http.StatusTooManyRequests {
			t.Fatalf("unexpected status %d under overload, want 429", r.code)
		}
		shed429++
		if r.retryAfter != "" {
			if _, err := strconv.Atoi(r.retryAfter); err == nil {
				sawRetryAfter = true
			}
		}
	}
	release()
	// The parked request and the queued one both finish now.
	for i := 0; i < 2; i++ {
		if r := <-results; r.code != http.StatusOK && r.code != http.StatusTooManyRequests {
			t.Fatalf("released request finished with status %d", r.code)
		}
	}
	if shed429 < extra-1 {
		t.Fatalf("sheds = %d, want %d (limit admits one queued job)", shed429, extra-1)
	}
	if !sawRetryAfter {
		t.Fatal("no shed response carried a numeric Retry-After")
	}
	page := scrapeMetrics(t, ts)
	if v := labeledMetric(page, `serve_admission_rejects_total{reason="queue"}`); v < 1 {
		t.Fatalf("serve_admission_rejects_total{reason=\"queue\"} = %g, want >= 1\n%s", v, page)
	}
}

// TestExpiredDeadlineHeaderSheds: a router-propagated client deadline
// already in the past is refused before parsing costs anything, with
// 429 + Retry-After rather than a late 5xx.
func TestExpiredDeadlineHeaderSheds(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.SLOTargetP99 = time.Second })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", bytes.NewReader(matrixJSON(12, 1)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Deadline", strconv.FormatInt(time.Now().Add(-time.Second).UnixMilli(), 10))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expired-deadline request = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	page := scrapeMetrics(t, ts)
	if v := labeledMetric(page, `serve_admission_rejects_total{reason="expired"}`); v != 1 {
		t.Fatalf("serve_admission_rejects_total{reason=\"expired\"} = %g, want 1", v)
	}
	// A malformed header is ignored, never a rejection.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", bytes.NewReader(matrixJSON(12, 1)))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set("X-Request-Deadline", "not-a-number")
	resp2, err := ts.Client().Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("malformed deadline header = %d, want 200", resp2.StatusCode)
	}
}

// TestExpiredJobEvictedAtDequeue: a job whose deadline dies while
// queued behind a parked worker is answered without a forward pass —
// serve_queue_expired_total counts it and no extra job reaches the ladder.
func TestExpiredJobEvictedAtDequeue(t *testing.T) {
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	s, _ := newTestServer(t, func(c *Config) {
		c.CacheSize = 0 // dedup off: the job context is the request context
		c.Workers = 1
	})
	entered := make(chan struct{}, 16)
	s.testHookPreJob = func() {
		entered <- struct{}{}
		<-hold
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { release(); ts.Close() }()
	ts.Client().Transport.(*http.Transport).MaxIdleConnsPerHost = 16

	first := make(chan error, 1)
	go func() {
		_, _, _, err := postPredictErr(ts, matrixJSON(11, 1), "application/json")
		first <- err
	}()
	<-entered // worker parked on the first job

	// The second job enters the queue with a tight deadline and expires
	// there (the handler gives up at the deadline with a non-5xx shed
	// code; what matters here is the worker side).
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", bytes.NewReader(matrixJSON(13, 1)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Deadline", strconv.FormatInt(time.Now().Add(150*time.Millisecond).UnixMilli(), 10))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK || resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired request answered %d", resp.StatusCode)
	}

	release()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	waitFor(t, "expired job to be evicted at dequeue", func() bool {
		page := scrapeMetrics(t, ts)
		return metricValue(t, page, "serve_queue_expired_total") >= 1
	})
	// The evicted job never reached the ladder: exactly one job (the
	// parked one) executed a prediction.
	page := scrapeMetrics(t, ts)
	if rungs := jobsExecuted(page); rungs != 1 {
		t.Fatalf("ladder answered %g jobs, want 1 (evicted job must skip the forward pass)", rungs)
	}
}

// TestOverloadPlaneDisabledByDefault: SLOTargetP99 zero must leave the
// legacy behaviour untouched — no admission plane, static Retry-After.
func TestOverloadPlaneDisabledByDefault(t *testing.T) {
	s, _ := newTestServer(t, nil)
	if s.adm != nil {
		t.Fatal("admission plane constructed without SLOTargetP99")
	}
	if got := s.retryAfter(); got != "1" {
		t.Fatalf("legacy Retry-After = %q, want \"1\"", got)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if code, _, _ := postPredict(t, ts, matrixJSON(9, 1), "application/json"); code != http.StatusOK {
		t.Fatalf("predict with plane disabled = %d, want 200", code)
	}
}

// TestBrownoutReportsDtreeRung: while engaged, CurrentRung (and
// therefore /readyz) reports dtree, and predictions step down the
// ladder without touching the breaker.
func TestBrownoutReportsDtreeRung(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.CacheSize = 0
		c.SLOTargetP99 = 100 * time.Millisecond
	})
	clk := &admClock{t: time.Unix(1_700_000_000, 0)}
	s.adm.now = clk.now
	s.adm.winStart = clk.now()
	// Force-engage via the controller's own path.
	for i := 0; i < brownoutEngage+2; i++ {
		s.adm.finish(time.Second, true)
		clk.advance(brownoutInterval + time.Millisecond)
	}
	if !s.brownedOut() {
		t.Fatal("brownout not engaged")
	}
	if got := s.CurrentRung(); got != rungDTree {
		t.Fatalf("CurrentRung during brownout = %q, want dtree", got)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, resp, _ := postPredict(t, ts, matrixJSON(15, 1), "application/json")
	if code != http.StatusOK || resp.Rung != rungDTree {
		t.Fatalf("browned-out predict = %d rung %q, want 200 dtree", code, resp.Rung)
	}
	if !resp.FellBack || resp.Reason == "" {
		t.Fatalf("browned-out answer should report fallback + reason, got %+v", resp)
	}
	// Readyz stays 200: degraded, not down.
	rr, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("readyz during brownout = %d, want 200", rr.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(rr.Body); err != nil {
		t.Fatal(err)
	}
	if want := "ready rung=dtree"; !bytes.Contains(buf.Bytes(), []byte(want)) {
		t.Fatalf("readyz body %q, want %q", buf.String(), want)
	}
	if st := fmt.Sprint(s.breaker.State()); st != "closed" {
		t.Fatalf("breaker state during brownout = %s, want closed (capacity, not health)", st)
	}
}
