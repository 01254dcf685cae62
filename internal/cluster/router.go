package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// Config parameterises a Router.
type Config struct {
	// Replicas are the backend base URLs (http://host:port). Membership
	// is static for the life of the router.
	Replicas []string
	// ProbeInterval is the active health-check cadence (default 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one readyz probe (default 1s).
	ProbeTimeout time.Duration
	// BreakerThreshold is how many consecutive failures (probe or
	// request) take a replica out of rotation (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long a condemned replica waits before a
	// half-open probe may test it (default 2s).
	BreakerCooldown time.Duration
	// HalfOpenProbes is how many consecutive successes a recovering
	// replica needs before rejoining rotation (default 2) — one lucky
	// probe against a flapping replica must not readmit it.
	HalfOpenProbes int
	// Retries bounds attempt relaunches after a failed or shed attempt;
	// the total outbound budget per request is 1+Retries attempts
	// (default 2).
	Retries int
	// Backoff is the base of the jittered exponential backoff between
	// retry attempts (default 25ms; doubles per retry, ±50% jitter).
	Backoff time.Duration
	// RequestTimeout is the end-to-end deadline budget per routed
	// request, all attempts included (default 15s).
	RequestTimeout time.Duration
	// RetryBudgetRatio caps steady-state retries at this fraction of
	// successful attempts: each success deposits Ratio retry tokens,
	// each relaunch withdraws one (default 0.1).
	RetryBudgetRatio float64
	// RetryBudgetBurst is both the token cap and the starting balance,
	// so a cold router can still retry through an isolated failure
	// (default 10).
	RetryBudgetBurst int
	// MaxBodyBytes caps accepted request bodies (default 32 MiB).
	MaxBodyBytes int64
	// Limits is the ingestion budget used to parse (and reject) bodies
	// at the edge. The zero value means sparse.DefaultLimits.
	Limits sparse.Limits
	// Log receives operational lines (nil = silent).
	Log io.Writer
}

func (c *Config) defaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 2
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Backoff <= 0 {
		c.Backoff = 25 * time.Millisecond
	}
	if c.RetryBudgetRatio <= 0 {
		c.RetryBudgetRatio = 0.1
	}
	if c.RetryBudgetBurst <= 0 {
		c.RetryBudgetBurst = 10
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.Limits == (sparse.Limits{}) {
		c.Limits = sparse.DefaultLimits()
	}
}

// Router fronts a static replica set with health-checked, breaker-
// gated, retrying request routing.
type Router struct {
	cfg    Config
	ring   *ring
	met    *metrics
	budget *retryBudget
	client *http.Client

	quit    chan struct{}
	probeWG sync.WaitGroup
	once    sync.Once
}

// New builds a Router and starts its probe loop. Close releases it.
func New(cfg Config) (*Router, error) {
	cfg.defaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("cluster: no replicas configured")
	}
	rg := &ring{}
	seen := map[string]bool{}
	for _, raw := range cfg.Replicas {
		url := strings.TrimSuffix(strings.TrimSpace(raw), "/")
		if url == "" {
			continue
		}
		if !strings.Contains(url, "://") {
			url = "http://" + url
		}
		if seen[url] {
			return nil, fmt.Errorf("cluster: duplicate replica %s", url)
		}
		seen[url] = true
		rg.replicas = append(rg.replicas, newReplica(url, cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.HalfOpenProbes))
	}
	if len(rg.replicas) == 0 {
		return nil, errors.New("cluster: no replicas configured")
	}
	rt := &Router{
		cfg:    cfg,
		ring:   rg,
		met:    newMetrics(),
		budget: newRetryBudget(cfg.RetryBudgetRatio, cfg.RetryBudgetBurst),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}},
		quit: make(chan struct{}),
	}
	rt.met.reg.GaugeFunc("router_retry_budget_tokens", "Remaining retry-budget tokens.", rt.budget.balance)
	for _, rep := range rg.replicas {
		// Pre-create the per-replica series so the first scrape already
		// shows the whole fleet (state 2 until the first probe passes).
		rt.met.replicaState.With(replicaLabel(rep.url)).SetInt(stateDown)
		rt.met.probeFailures.With(replicaLabel(rep.url))
	}
	rt.probeWG.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// Close stops the probe loop. It does not wait for in-flight requests
// (the owning http.Server's Shutdown does that).
func (rt *Router) Close() {
	rt.once.Do(func() { close(rt.quit) })
	rt.probeWG.Wait()
}

func (rt *Router) logf(format string, args ...any) {
	if rt.cfg.Log != nil {
		fmt.Fprintf(rt.cfg.Log, format+"\n", args...)
	}
}

// Metrics returns the router's metric registry (backing /metrics).
func (rt *Router) Metrics() *obs.Registry { return rt.met.reg }

// Replicas returns the configured replica handles (for tests and
// status surfaces).
func (rt *Router) Replicas() []*Replica { return rt.ring.replicas }

// Owner returns the base URL of the replica that currently owns fp's
// cache shard.
func (rt *Router) Owner(fp uint64) string { return shardOwner(rt.ring.rank(fp)).url }

// shardOwner is the first replica of a rendezvous ranking whose breaker
// is not open, or the top-ranked one when every breaker is.
func shardOwner(ranked []*Replica) *Replica {
	for _, rep := range ranked {
		if rep.state() != stateDown {
			return rep
		}
	}
	return ranked[0]
}

// Handler returns the router's HTTP surface: POST /v1/predict (the
// routed endpoint), GET /healthz, GET /readyz (503 until at least one
// replica is in rotation) and GET /metrics.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", rt.handlePredict)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", rt.handleReadyz)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		rt.met.WriteTo(w)
	})
	return mux
}

func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	up := 0
	for _, rep := range rt.ring.replicas {
		if rep.state() != stateDown {
			up++
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if up == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "no replicas in rotation (0/%d)\n", len(rt.ring.replicas))
		return
	}
	fmt.Fprintf(w, "ready replicas=%d/%d\n", up, len(rt.ring.replicas))
}

type routeError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := http.StatusOK
	attempts := 1
	defer func() { rt.met.request(code, start, attempts) }()

	if r.Method != http.MethodPost {
		code = http.StatusMethodNotAllowed
		writeJSON(w, code, routeError{Error: "POST only"})
		return
	}
	body, err := serve.ReadBody(r, rt.cfg.MaxBodyBytes)
	if err != nil {
		code = serve.IngestStatus(err)
		writeJSON(w, code, routeError{Error: err.Error()})
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()

	// The router scans every body itself: malformed requests are
	// rejected at the edge with the same 400/413/422 taxonomy a replica
	// would use, and well-formed ones yield the sparsity fingerprint
	// that drives shard routing. It never needs the matrix, so a
	// canonical JSON body has no value converted on this hop.
	ct := r.Header.Get("Content-Type")
	sc, err := serve.ScanMatrix(ctx, body, ct, rt.cfg.Limits)
	if err != nil {
		code = serve.IngestStatus(err)
		writeJSON(w, code, routeError{Error: err.Error()})
		return
	}
	fp := sc.Fingerprint()

	res := rt.forward(ctx, fp, body, ct, r.URL.RawQuery)
	attempts = res.launches
	if !res.usable() && !res.shed() {
		// The attempt budget ran dry without a relayable answer
		// (transport errors or replica 5xx all the way down): the
		// gateway owns the error code. A unanimous shed (429, or a 503
		// from a draining replica) is different — the cluster is telling
		// the client to back off, and the Retry-After relay below says
		// for how long.
		code = http.StatusBadGateway
		if ctx.Err() != nil {
			code = http.StatusGatewayTimeout
		}
		msg := "no replica answered"
		if res.err != nil {
			msg = res.err.Error()
		} else if res.status != 0 {
			msg = fmt.Sprintf("replica answered %d after %d attempts", res.status, res.launches)
		}
		writeJSON(w, code, routeError{Error: msg})
		return
	}
	code = res.status
	for _, h := range []string{"Content-Type", "X-Trace-Id", "X-Cache-Status", "Retry-After"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Served-By", res.rep.url)
	w.Header().Set("X-Router-Attempts", strconv.Itoa(res.launches))
	w.WriteHeader(code)
	w.Write(res.body)
}

// attemptResult is one outbound attempt's outcome (status 0 = no HTTP
// response: transport error or attempt deadline).
type attemptResult struct {
	status int
	header http.Header
	body   []byte
	rep    *Replica
	err    error

	launches int // attempts made for the request so far, set by forward
}

// usable reports whether the attempt's answer should be relayed to the
// client. 5xx and 429 are not: a different replica may well do better
// (429 means "this replica is shedding", not "the cluster is full").
func (a attemptResult) usable() bool {
	return a.err == nil && a.status != 0 && a.status < 500 && a.status != http.StatusTooManyRequests
}

// shed reports whether the attempt was consciously refused by a replica
// (429, or 503 from a draining one). A shed answer is retryable while
// budget remains, but — unlike a transport error or a 5xx — it is also
// relayable: when retries run out, the client gets the refusal and its
// Retry-After rather than a synthesized 502.
func (a attemptResult) shed() bool {
	return a.err == nil && (a.status == http.StatusTooManyRequests || a.status == http.StatusServiceUnavailable)
}

// retryReason classifies a non-usable attempt for the
// router_retries_total{reason} counter: shed (the replica refused),
// transport (no HTTP answer at all), upstream (the replica broke).
func retryReason(a attemptResult) string {
	switch {
	case a.shed():
		return "shed"
	case a.err != nil || a.status == 0:
		return "transport"
	default:
		return "upstream"
	}
}

// retryAfterHint extracts a shed attempt's Retry-After pacing hint.
func retryAfterHint(a attemptResult) (time.Duration, bool) {
	if !a.shed() || a.header == nil {
		return 0, false
	}
	secs, err := strconv.Atoi(a.header.Get("Retry-After"))
	if err != nil || secs <= 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// forward routes one parsed request, one attempt at a time: candidates
// in rendezvous rank order, breaker-gated, each given a shrinking slice
// of the request deadline, with jittered exponential backoff between
// retries. It returns the first usable answer, or the last failure when
// the attempt budget is spent.
func (rt *Router) forward(ctx context.Context, fp uint64, body []byte, contentType, rawQuery string) attemptResult {
	ranked := rt.ring.rank(fp)
	// Read before any breaker is asked to admit an attempt.
	owner := shardOwner(ranked)
	deadline, _ := ctx.Deadline()
	maxLaunches := 1 + rt.cfg.Retries

	// pick returns the next attempt's target: the best-ranked untried
	// replica whose breaker admits traffic; failing that, the best
	// untried one regardless (fail static: when every breaker is open,
	// refusing to try at all guarantees failure, trying the most likely
	// owner does not). nil when every replica has been tried.
	tried := make([]bool, len(ranked))
	pick := func() *Replica {
		for i, rep := range ranked {
			if !tried[i] && rep.breaker.Allow() {
				tried[i] = true
				return rep
			}
		}
		for i, rep := range ranked {
			if !tried[i] {
				tried[i] = true
				return rep
			}
		}
		return nil
	}

	var last attemptResult
	for launches := 0; ; {
		rep := pick()
		remaining := time.Until(deadline)
		if remaining <= 0 {
			if launches == 0 {
				return attemptResult{err: errors.New("cluster: request budget exhausted before first attempt")}
			}
			return last
		}
		// Shrinking per-attempt budget: an early attempt may not eat the
		// whole request deadline, later ones get whatever is left.
		actx, cancel := context.WithTimeout(ctx, remaining/time.Duration(maxLaunches-launches))
		last = rt.send(actx, rep, launches, body, contentType, rawQuery)
		cancel()
		launches++
		last.launches = launches
		if last.usable() {
			// Every success funds future retries: the budget refills at
			// RetryBudgetRatio per answered request.
			rt.budget.deposit()
			if last.rep != owner {
				rt.met.failovers.Inc()
			}
			return last
		}
		// The request itself is over (deadline or client gone): no
		// relaunch, no token spent on one.
		if ctx.Err() != nil {
			last.err, last.status = ctx.Err(), 0
			return last
		}
		// A retry is paid for (pacing wait, budget token, counter) only
		// when it can be launched: with every replica tried the refusal
		// in hand is the answer.
		if launches == maxLaunches || launches == len(ranked) {
			return last
		}
		wait := jitter(rt.cfg.Backoff << uint(launches-1))
		if ra, ok := retryAfterHint(last); ok {
			// The replica said when it can take work again. A deadline
			// that cannot cover that wait makes the shed answer final:
			// relaying it (with its Retry-After) beats burning an attempt
			// that will be shed too.
			if time.Until(deadline) <= ra {
				return last
			}
			if ra > wait {
				wait = ra
				rt.met.retryAfterWaits.Inc()
			}
		}
		if !rt.budget.withdraw() {
			// Fleet safety: no retry tokens, no relaunch — even with
			// attempts left. A cluster-wide brownout must not be
			// amplified Retries+1-fold by its own router.
			rt.met.budgetExhausted.Inc()
			return last
		}
		rt.met.retries.With(fmt.Sprintf("reason=%q", retryReason(last))).Inc()
		if !sleepCtx(ctx, wait) {
			return last
		}
	}
}

// send performs one outbound attempt and feeds the replica's breaker:
// transport failures and 5xx count against it, anything the replica
// consciously answered (2xx, 4xx, even a 429 shed) counts for it.
func (rt *Router) send(ctx context.Context, rep *Replica, attempt int, body []byte, contentType, rawQuery string) attemptResult {
	start := time.Now()
	url := rep.url + "/v1/predict"
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return attemptResult{rep: rep, err: err}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if dl, ok := ctx.Deadline(); ok {
		// Deadline propagation: the replica's admission control sheds
		// work it cannot finish in time instead of queueing it to die.
		req.Header.Set("X-Request-Deadline", strconv.FormatInt(dl.UnixMilli(), 10))
	}
	if attempt > 0 {
		// Mark retries so replica-side accounting can keep true demand
		// separate from router duplicates.
		req.Header.Set("X-Retry-Attempt", strconv.Itoa(attempt))
	}
	res, err := rt.client.Do(req)
	if err != nil {
		rep.breaker.Failure()
		rt.met.proxyLatency.With(replicaLabel(rep.url)).ObserveSince(start)
		return attemptResult{rep: rep, err: err}
	}
	defer res.Body.Close()
	data, err := io.ReadAll(io.LimitReader(res.Body, rt.cfg.MaxBodyBytes))
	rt.met.proxyLatency.With(replicaLabel(rep.url)).ObserveSince(start)
	if err != nil {
		rep.breaker.Failure()
		return attemptResult{rep: rep, err: err}
	}
	if res.StatusCode >= 500 {
		rep.breaker.Failure()
	} else {
		rep.breaker.Success()
	}
	return attemptResult{status: res.StatusCode, header: res.Header, body: data, rep: rep}
}

// jitter spreads d by ±50% so synchronized retries from many concurrent
// requests do not re-converge on the recovering replica in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// sleepCtx sleeps d or until ctx dies; false means the context died.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
