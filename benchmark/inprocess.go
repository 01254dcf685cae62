package main

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/selector"
	"repro/internal/serve"
)

// run is the per-invocation context handed to every workload.
type run struct {
	seed      int64
	seconds   float64
	traced    bool
	modelPath string
	outDir    string // everything the harness writes goes under it
	sz        sizes
}

func (r run) window(share float64) time.Duration {
	return time.Duration(r.seconds * share * float64(time.Second))
}

// measured is the length of the window end-to-end numbers come from: all
// of -seconds untraced, the reference half of it in a traced run.
func (r run) measured() time.Duration {
	if r.traced {
		return r.window(1 - tracedShare)
	}
	return r.window(1)
}

func shutdown(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx) // a blown drain deadline at exit changes no measurement
}

// serveConfig is cmd/serve's flag defaults with the fixed cache size.
func (r run) serveConfig() serve.Config {
	return serve.Config{ModelPath: r.modelPath, CacheSize: r.sz.cacheSize}
}

// servingInputs loads the oracle's copy of the model and generates the
// workload's pool of request bodies.
func servingInputs(r run, res *result, poolSize, mmEvery int) (*selector.Selector, *pool, error) {
	defer res.inputs(time.Now())
	sel, err := selector.LoadFile(r.modelPath)
	if err != nil {
		return nil, nil, err
	}
	p, err := buildPool(poolSeed(r.seed, res.workload), poolSize, r.sz.serveCandidates, serveMaxN, mmEvery, sel)
	return sel, p, err
}

// runInprocess is lone_uncached and hot_zipf: closed-loop clients calling
// serve.Server.Handler() in-process.
func runInprocess(r run, name string, poolSize, mmEvery, clients int, choose func(k int64) int) (*result, error) {
	res := newResult(name)
	sel, p, err := servingInputs(r, res, poolSize, mmEvery)
	if err != nil {
		return nil, err
	}
	srv, err := repeatSetup(res, r.sz, func() (*serve.Server, error) {
		srv, err := serve.New(r.serveConfig())
		if err != nil {
			return nil, err
		}
		status, body := newInprocClient(srv.Handler()).post(&p.entries[0], false)
		return srv, firstAnswer(&p.entries[0], status, body)
	}, shutdown)
	if err != nil {
		return nil, err
	}
	defer shutdown(srv)
	heap := startHeapSampler()

	h := srv.Handler()
	var counter atomic.Int64
	warm := runClosedLoop("warm-up", h, p, &counter, choose, clients, r.window(warmupShare), false)
	before, err := scrapeAll(srv.Metrics())
	if err != nil {
		return nil, err
	}
	main := runClosedLoop("measured", h, p, &counter, choose, clients, r.measured(), false)
	res.notes = append(res.notes, warm.line(), main.line())
	stages := []*loopStats{warm, main}

	d := summarise(main.latMs, "ms")
	res.metrics["p50_ms"] = main.p50()
	res.notef("latency from send: %s; quiet p50=%.4gms", d.line, res.metrics["p50_ms"])
	res.metrics["throughput_rps"] = main.closedLoopRate(clients)
	res.metrics["goodput_share"] = main.goodput(r.measured())
	res.metrics["allocs_per_op"] = ratio(float64(main.mallocs), float64(main.attempted))
	res.metrics["accuracy"] = p.accuracy
	res.metrics["model_regret"] = p.regret

	if r.traced {
		tr := runClosedLoop("traced", h, p, &counter, choose, clients, r.window(tracedShare), true)
		res.notes = append(res.notes, tr.line())
		stages = append(stages, tr)
		after, err := scrapeAll(srv.Metrics())
		if err != nil {
			return nil, err
		}
		if err := serveLayers(r, res, sel, p, main, tr, before, after, 1); err != nil {
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

func runLoneUncached(r run) (*result, error) {
	// Cycled in order through twice the cache's capacity: every request
	// finds its entry already evicted, so the whole uncached path runs
	// and the cache is written and evicted on every request.
	cycle := func(k int64) int { return int(k % int64(r.sz.lonePool)) }
	return runInprocess(r, "lone_uncached", r.sz.lonePool, 0, 1, cycle)
}

func runHotZipf(r run) (*result, error) {
	seq := zipfSequence(poolSeed(r.seed, "hot_zipf.popularity"), hotZipfS, r.sz.hotPool, 1<<14)
	draw := func(k int64) int { return seq[k%int64(len(seq))] }
	return runInprocess(r, "hot_zipf", r.sz.hotPool, hotMMEvery, min(hotClients, runtime.GOMAXPROCS(0)), draw)
}
