package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/selector"
	"repro/internal/serve"
)

// fleet is the service under fleet_open: loopback HTTP to a
// cluster.Router in front of two serve.Servers, all in this process.
type fleet struct {
	sel      *selector.Selector
	pool     *pool
	dir      string // feedback logs; removed at tear-down
	replicas []*serve.Server
	urls     []string
	router   *cluster.Router
	routerHS *http.Server
	base     string
	client   *http.Client
	served   sync.WaitGroup
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// bootFleet brings the service up and gets one checked answer through
// the router.
func bootFleet(r run, sel *selector.Selector, p *pool) (f *fleet, err error) {
	f = &fleet{sel: sel, pool: p}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if f.dir, err = scratchDir(r.outDir, "fleet"); err != nil {
		return f, err
	}
	for i := 0; i < 2; i++ {
		ln, url, err := listen()
		if err != nil {
			return f, err
		}
		cfg := r.serveConfig()
		cfg.SelfURL = url
		cfg.SLOTargetP99 = fleetSLOTarget
		cfg.FeedbackDir = filepath.Join(f.dir, fmt.Sprintf("replica%d", i))
		cfg.FeedbackEstimates = true
		cfg.FeedbackMaxSegmentBytes = feedbackSegmentBytes
		cfg.FeedbackMaxSegmentAge = feedbackSegmentAge
		srv, err := serve.New(cfg)
		if err != nil {
			ln.Close()
			return f, err
		}
		f.replicas = append(f.replicas, srv)
		f.urls = append(f.urls, url)
		f.served.Add(1)
		go func() {
			defer f.served.Done()
			srv.Serve(ln) // returns http.ErrServerClosed at Shutdown
		}()
	}
	if f.router, err = cluster.New(cluster.Config{Replicas: f.urls}); err != nil {
		return f, err
	}
	ln, url, err := listen()
	if err != nil {
		return f, err
	}
	f.base = url
	f.routerHS = &http.Server{Handler: f.router.Handler(), ReadHeaderTimeout: 10 * time.Second}
	f.served.Add(1)
	go func() {
		defer f.served.Done()
		f.routerHS.Serve(ln)
	}()
	f.client = &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: fleetConns, MaxIdleConnsPerHost: fleetConns},
	}
	// Traffic starts once the router's first probes have put both
	// replicas in rotation on the cnn rung.
	deadline := time.Now().Add(5 * time.Second)
	for {
		up := 0
		for _, rep := range f.router.Replicas() {
			if rep.Rung() == "cnn" {
				up++
			}
		}
		if up == len(f.urls) {
			break
		}
		if time.Now().After(deadline) {
			return f, errors.New("replicas did not pass the router's health probe within 5s")
		}
		time.Sleep(250 * time.Microsecond)
	}
	status, body, err := f.post(f.base, &p.entries[0], false)
	if err != nil {
		return f, fmt.Errorf("first request: %w", err)
	}
	return f, firstAnswer(&p.entries[0], status, body)
}

// close stops every listener, waits for the serving goroutines and
// removes the feedback directory.
func (f *fleet) close() {
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if f.routerHS != nil {
		f.routerHS.Shutdown(ctx)
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, srv := range f.replicas {
		srv.Shutdown(ctx)
	}
	f.served.Wait()
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

func (f *fleet) registries() []*obs.Registry {
	regs := []*obs.Registry{f.router.Metrics()}
	for _, srv := range f.replicas {
		regs = append(regs, srv.Metrics())
	}
	return regs
}

// post sends one pool entry to base over loopback HTTP.
func (f *fleet) post(base string, e *entry, traced bool) (int, []byte, error) {
	url := base + "/v1/predict"
	if traced {
		url += "?trace=1"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(e.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", e.contentType)
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// stage offers one open-loop Poisson stage at rate against base and
// returns its outcomes; latency is timed from when each request was due.
func (f *fleet) stage(name, base string, seed int64, rate float64, window time.Duration, seq []int, offset int, traced bool) *loopStats {
	due := poissonSchedule(seed, rate, window)
	st := &loopStats{stage: name}
	outs := make([]struct {
		a   answer
		oc  outcome
		why string
	}, len(due))
	tracedReqs := make([]tracedRequest, len(due))
	entryOf := func(i int) int { return seq[(offset+i)%len(seq)] }
	before := mallocs()
	start := time.Now()
	arrivals := runOpenLoop(due, min(fleetConns, runtime.GOMAXPROCS(0)), func(i int) bool {
		idx := entryOf(i)
		e := &f.pool.entries[idx]
		t0 := time.Now()
		code, body, err := f.post(base, e, traced)
		o := &outs[i]
		if err != nil {
			o.oc, o.why = outcomeFailed, err.Error()
			return false
		}
		o.a, o.oc = judge(e, code, body)
		if o.oc == outcomeFailed {
			o.why = fmt.Sprintf("entry %d status %d format %q want %q", idx, code, o.a.Format, e.want)
		}
		if traced {
			tracedReqs[i] = tracedRequest{entry: idx, start: t0, end: time.Now(), cached: o.a.Cached, server: o.a.Trace}
		}
		return o.oc != outcomeFailed
	})
	st.elapsed = time.Since(start)
	st.mallocs = mallocs() - before
	for i, ar := range arrivals {
		st.record(entryOf(i), due[i], ar.sinceDue, outs[i].a, outs[i].oc, outs[i].why)
		st.sendMs = append(st.sendMs, ms(ar.sinceSend))
		st.lateMs = append(st.lateMs, ms(ar.genLate))
	}
	for _, t := range tracedReqs {
		if !t.start.IsZero() { // untraced stage, or the request got no answer
			st.traced = append(st.traced, t)
		}
	}
	return st
}

func runFleetOpen(r run) (*result, error) {
	res := newResult("fleet_open")
	sel, p, err := servingInputs(r, res, r.sz.fleetPool, 0)
	if err != nil {
		return nil, err
	}
	f, err := repeatSetup(res, r.sz, func() (*fleet, error) { return bootFleet(r, sel, p) }, (*fleet).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	heap := startHeapSampler()

	seq := zipfSequence(poolSeed(r.seed, "fleet_open.popularity"), fleetZipfS, r.sz.fleetPool, 1<<14)
	seedOf := func(stage string) int64 { return poolSeed(r.seed, "fleet_open.arrivals."+stage) }
	offset := 0
	var stages []*loopStats
	play := func(name, base string, rate float64, window time.Duration, traced bool) *loopStats {
		st := f.stage(name, base, seedOf(name), rate, window, seq, offset, traced)
		offset += st.attempted
		stages = append(stages, st)
		res.notes = append(res.notes, st.line())
		return st
	}

	play("warm-up", f.base, fleetRateWarm, r.window(warmupShare), false)
	before, err := scrapeAll(f.registries()...)
	if err != nil {
		return nil, err
	}
	stageLen := r.window(fleetStageShare)
	if r.traced {
		stageLen = r.window(fleetStageShare * tracedShare)
	}
	r1 := play("r1", f.base, fleetRateR1, stageLen, false)
	p50 := r1.p50()
	res.notef("r1 %.0f/s latency from due: %s; quiet p50=%.4gms", fleetRateR1, summarise(r1.latMs, "ms").line, p50)

	if !r.traced {
		r2 := play("r2", f.base, fleetRateR2, stageLen, false)
		res.notef("r2 %.0f/s latency from due: %s", fleetRateR2, summarise(r2.latMs, "ms").line)
		res.notef("generator lateness: p95 %.3fms over %d arrivals", quantile(sortedCopy(slices.Concat(r1.lateMs, r2.lateMs)), 0.95), r1.attempted+r2.attempted)
		m := res.metrics
		m["p50_ms"] = p50
		m["throughput_rps"] = float64(r2.succeeded) / r2.elapsed.Seconds()
		m["goodput_share"] = r2.goodput(stageLen) // every scheduled arrival is sent
		m["allocs_per_op"] = ratio(float64(r1.mallocs+r2.mallocs), float64(r1.attempted+r2.attempted))
		m["accuracy"] = f.pool.accuracy
		m["model_regret"] = f.pool.regret
	} else {
		t1 := play("traced r1", f.base, fleetRateR1, stageLen, true)
		t2 := play("traced r2", f.base, fleetRateR2, stageLen, true)
		after, err := scrapeAll(f.registries()...)
		if err != nil {
			return nil, err
		}
		// Same bodies, same rate, straight to one replica: what the
		// router's hop costs at the median.
		direct := play("direct r1", f.urls[0], fleetRateR1, stageLen, false)
		if err := f.layers(r, res, r1, t1, t2, direct, before, after); err != nil {
			return nil, err
		}
	}
	for _, st := range stages {
		res.attempted += st.attempted
		res.failed += st.failed
	}
	heap.stop(res)
	return res, nil
}

// layers fills the per-layer metrics of a traced fleet_open run.
func (f *fleet) layers(r run, res *result, r1, t1, t2, direct *loopStats, before, after counters) error {
	traced := &loopStats{}
	traced.merge(t1)
	traced.merge(t2)
	// Through the router a body is decoded twice: at the edge for the
	// shard fingerprint, and again in the replica.
	if err := serveLayers(r, res, f.sel, f.pool, r1, traced, before, after, 2); err != nil {
		return err
	}
	m := res.metrics
	// Tracing overhead compares like with like: traced r1 against r1.
	m["bench.trace_overhead_share"] = ratio(median(t1.latMs), median(r1.latMs)) - 1
	m["bench.gen_late_p95_ms"] = quantile(sortedCopy(slices.Concat(t1.lateMs, t2.lateMs)), 0.95)
	m["bench.fleet_r2_p50_ms"] = median(t2.latMs)
	m["bench.fleet_r2_p95_ms"] = quantile(sortedCopy(t2.latMs), 0.95)

	routed := delta(before, after, "router_requests_total")
	m["cluster.router_overhead_us"] = (median(r1.sendMs) - median(direct.sendMs)) * 1e3
	m["cluster.retry_share"] = ratio(delta(before, after, "router_retries_total"), routed)
	m["cluster.hedge_share"] = ratio(delta(before, after, "router_hedges_total"), routed)
	m["cluster.budget_exhausted"] = delta(before, after, "router_retry_budget_exhausted_total")
	m["cluster.peer_fill_hit_share"] = ratio(delta(before, after, `router_peer_fill_total{outcome="hit"`), delta(before, after, "router_peer_fill_total"))
	m["cluster.replica_limited_share"] = ratio(delta(before, after, "router_replica_limited_total"), routed)

	entries, dropped := delta(before, after, "feedback_entries_total"), delta(before, after, "feedback_dropped_total")
	m["feedback.dropped_share"] = ratio(dropped, entries+dropped)
	// Bytes are read after the replicas seal their logs, over the whole
	// run: the logger writes off the request path, so a window-sized
	// reading would miss entries still queued.
	for _, srv := range f.replicas {
		shutdown(srv)
	}
	sealed, err := scrapeAll(f.registries()...)
	if err != nil {
		return err
	}
	bytes, err := dirBytes(f.dir)
	if err != nil {
		return fmt.Errorf("sizing the feedback logs: %w", err)
	}
	m["feedback.bytes_per_req"] = ratio(float64(bytes), sealed["feedback_flushed_total"])
	return nil
}
