package main

import (
	"fmt"

	"repro/internal/represent"
	"repro/internal/selector"
)

// medianUs is the median duration, in µs, of the spans with the name (0
// when the workload recorded none).
func medianUs(spans []span, name string) float64 {
	return median(durations(spans, name)) / 1e3
}

// inferenceLayers fills the represent / nn / selector timing metrics
// from replayed spans and measures their allocations on a quiet process
// over the pool's first entries.
func inferenceLayers(res *result, spans []span, rp *replayer, p *pool) {
	res.metrics["represent.normalize_us"] = medianUs(spans, "represent.normalize")
	res.metrics["nn.forward_us"] = medianUs(spans, "nn.forward")
	res.metrics["selector.predict_us"] = medianUs(spans, "selector.predict")
	self := selfTimes(spans)
	var selfUs []float64
	for _, s := range spans {
		if s.Name == "selector.predict" {
			selfUs = append(selfUs, self[s.ID]/1e3)
		}
	}
	res.metrics["selector.self_us"] = median(selfUs)

	const probes = 16
	i := 0
	next := func() *entry { i++; return &p.entries[i%min(probes, len(p.entries))] }
	cfg := rp.sel.Cfg.Represent
	res.metrics["represent.normalize_allocs"] = allocsPer(probes, func() { represent.Normalize(next().m, cfg) })
	res.metrics["selector.predict_allocs"] = allocsPer(probes, func() { rp.sel.Predict(next().m) })
	chans, _ := represent.Normalize(p.entries[0].m, cfg)
	res.metrics["nn.forward_allocs"] = allocsPer(probes, func() { rp.engine.Predict(chans, rp.probs) })
}

// serveLayers turns a traced serving window into the per-layer metrics:
// it replays a sample of the traced requests through each layer from
// outside, writes the span file, and reads the counter deltas scraped
// around the window. ref is the untraced window the tracing overhead is
// measured against; parses is how often the path decodes a body.
func serveLayers(r run, res *result, sel *selector.Selector, p *pool, ref, tr *loopStats, before, after counters, parses int) error {
	if len(tr.traced) == 0 {
		return fmt.Errorf("%s: the traced window recorded no request", res.workload)
	}
	rec := newRecorder(tr.traced[0].start)
	rp, err := newReplayer(rec, sel)
	if err != nil {
		return err
	}
	for op, t := range sample(tr.traced) {
		rp.request(op+1, t, &p.entries[t.entry], parses)
	}
	path, err := rec.write(r.outDir, res.workload)
	if err != nil {
		return fmt.Errorf("writing the span file: %w", err)
	}
	spans := rec.spans
	res.notef("trace: %d spans of %d sampled requests in %s", len(spans), len(rp.selfUs), path)

	m := res.metrics
	m["sparse.parse_json_us"] = medianUs(spans, "sparse.parse_json")
	m["sparse.parse_json_ns_per_nnz"] = ratio(rp.parseJSONNs, rp.parseJSONNNZ)
	m["sparse.parse_mm_us"] = medianUs(spans, "sparse.parse_mm")
	m["sparse.fingerprint_us"] = medianUs(spans, "sparse.fingerprint")
	inferenceLayers(res, spans, rp, p)

	m["serve.request_us"] = medianUs(spans, "request")
	m["serve.self_us"] = median(rp.selfUs)
	m["serve.queue_us"] = medianUs(spans, "serve.queue")
	m["serve.batch_us"] = medianUs(spans, "serve.batch")
	m["serve.rung_us"] = medianUs(spans, "serve.rung")

	hits, misses := delta(before, after, "serve_cache_hits_total"), delta(before, after, "serve_cache_misses_total")
	requests := delta(before, after, `serve_requests_total{code="200",endpoint="predict"`) +
		delta(before, after, `serve_requests_total{code="429",endpoint="predict"`)
	m["serve.cache_hit_share"] = ratio(hits, hits+misses)
	m["serve.batch_mean_jobs"] = ratio(delta(before, after, "serve_batch_jobs_total"), delta(before, after, "serve_batches_total"))
	m["serve.shed_share"] = ratio(delta(before, after, "serve_queue_rejects_total")+delta(before, after, `serve_admission_rejects_total{reason="expired"`), requests)
	m["serve.dedup_share"] = ratio(delta(before, after, "serve_dedup_hits_total"), requests)
	m["serve.degraded_share"] = ratio(float64(ref.degraded+tr.degraded), float64(ref.succeeded+tr.succeeded))

	roots := sum(durations(spans, "request"))
	m["bench.unattributed_share"] = ratio(layerSelf(spans)[""], roots)
	m["bench.trace_overhead_share"] = ratio(median(tr.latMs), median(ref.latMs)) - 1
	d := summarise(ref.latMs, "ms")
	m["bench.p95_ms"], m["bench.p99_ms"] = d.p95, d.p99
	return nil
}
