package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/represent"
	"repro/internal/selector"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// answer is the part of a predict response the harness checks.
type answer struct {
	Format   string     `json:"format"`
	FellBack bool       `json:"fell_back"`
	Cached   bool       `json:"cached"`
	Rung     string     `json:"rung"`
	Trace    []obs.Span `json:"trace"`
}

// outcome classifies one served request against the oracle.
type outcome int

const (
	outcomeOK       outcome = iota // 200, cnn rung, format equals selector.Predict offline
	outcomeDegraded                // 200 from a lower rung or a fallback: allowed, counted
	outcomeFailed                  // non-200, undecodable, or a cnn answer that differs
)

// judge is the correctness oracle for served answers.
func judge(e *entry, status int, body []byte) (answer, outcome) {
	var a answer
	if status != http.StatusOK || json.Unmarshal(body, &a) != nil {
		return a, outcomeFailed
	}
	if a.Rung != "cnn" || a.FellBack {
		return a, outcomeDegraded
	}
	if a.Format != e.want.String() {
		return a, outcomeFailed
	}
	return a, outcomeOK
}

// respWriter is the minimal reusable http.ResponseWriter the in-process
// workloads hand to Server.Handler().
type respWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(c int)   { w.code = c }
func (w *respWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.buf.Write(b)
}

func (w *respWriter) reset() {
	for k := range w.hdr {
		delete(w.hdr, k)
	}
	w.code = 0
	w.buf.Reset()
}

// inprocClient calls a handler in-process, reusing one request and one
// response writer so the harness's own allocations stay a small, fixed
// part of allocs_per_op.
type inprocClient struct {
	h     http.Handler
	req   *http.Request
	body  bytes.Reader
	plain *url.URL
	trace *url.URL
	w     respWriter
}

func newInprocClient(h http.Handler) *inprocClient {
	c := &inprocClient{h: h, w: respWriter{hdr: http.Header{}}}
	req, err := http.NewRequest(http.MethodPost, "/v1/predict", nil)
	if err != nil {
		panic(err) // constant arguments
	}
	c.req, c.plain = req, req.URL
	c.trace = &url.URL{Path: "/v1/predict", RawQuery: "trace=1"}
	c.req.Body = io.NopCloser(&c.body)
	return c
}

// post sends one pool entry; the returned body is valid until the next
// call.
func (c *inprocClient) post(e *entry, traced bool) (int, []byte) {
	c.body.Reset(e.body)
	c.req.URL = c.plain
	if traced {
		c.req.URL = c.trace
	}
	c.req.Header.Set("Content-Type", e.contentType)
	c.w.reset()
	c.h.ServeHTTP(&c.w, c.req)
	return c.w.code, c.w.buf.Bytes()
}

// traced is what the harness keeps of one request in a traced window:
// the root interval and the server's own ?trace=1 span block.
type tracedRequest struct {
	entry      int
	start, end time.Time
	cached     bool
	server     []obs.Span
}

// loopStats is one window of requests.
type loopStats struct {
	stage string
	// One element per request. at is when the request belongs to the
	// window: its completion in a closed loop, its due time in an open
	// loop (an arrival counts where it was scheduled, however late it
	// was answered).
	entries []int     // pool index
	atMs    []float64 // offset from the start of the window
	latMs   []float64 // from send (closed loop) or from due time (open loop)
	inTime  []bool    // answered correctly within goodputLimit

	attempted, succeeded, failed int
	degraded, cached             int
	firstFailure                 string
	elapsed                      time.Duration
	mallocs                      uint64
	traced                       []tracedRequest
	sendMs, lateMs               []float64 // open loop only: latency from send, generator lateness
}

func (s *loopStats) record(entry int, at, lat time.Duration, a answer, oc outcome, why string) {
	s.attempted++
	s.entries = append(s.entries, entry)
	s.atMs = append(s.atMs, ms(at))
	s.latMs = append(s.latMs, ms(lat))
	s.inTime = append(s.inTime, oc != outcomeFailed && lat <= goodputLimit)
	switch oc {
	case outcomeFailed:
		s.failed++
		if s.firstFailure == "" {
			s.firstFailure = why
		}
		return
	case outcomeDegraded:
		s.degraded++
	}
	s.succeeded++
	if a.Cached {
		s.cached++
	}
}

func (s *loopStats) merge(o *loopStats) {
	s.entries = append(s.entries, o.entries...)
	s.atMs = append(s.atMs, o.atMs...)
	s.latMs = append(s.latMs, o.latMs...)
	s.inTime = append(s.inTime, o.inTime...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.degraded += o.degraded
	s.cached += o.cached
	s.succeeded += o.succeeded
	s.traced = append(s.traced, o.traced...)
	if s.firstFailure == "" {
		s.firstFailure = o.firstFailure
	}
}

// line is the sent / succeeded / failed record printed per stage.
func (s *loopStats) line() string {
	l := fmt.Sprintf("%s: sent=%d succeeded=%d failed=%d degraded=%d cached=%d in %.2fs",
		s.stage, s.attempted, s.succeeded, s.failed, s.degraded, s.cached, s.elapsed.Seconds())
	if s.firstFailure != "" {
		l += " first failure: " + s.firstFailure
	}
	return l
}

// windowSlices is how many equal slices a window is cut into for
// goodput; the reported figure is the upper quartile over slices (see
// lowerQuartile), so a stall that ruins a slice or two is not taken for
// a service that cannot keep up.
const windowSlices = 20

// closedLoopRate is correct answers per second from clients callers
// that each wait for their answer: by Little's law that is clients over
// the mean latency, here with every request standing for its pool entry
// undisturbed (see quiet) — counting answers per second of the window
// instead read 126 to 196 on ten runs of lone_uncached where this held
// 8%.
func (s *loopStats) closedLoopRate(clients int) float64 {
	perSecond := float64(clients) * 1e3 * float64(len(s.latMs)) / sum(quiet(s.entries, s.latMs))
	return perSecond * ratio(float64(s.succeeded), float64(s.attempted))
}

// goodput is the share of requests answered correctly within
// goodputLimit. A refused or failed request misses the limit.
func (s *loopStats) goodput(window time.Duration) float64 {
	var all, inTime [windowSlices]float64
	for i, at := range s.atMs {
		slice := int(at * windowSlices / ms(window))
		if slice >= windowSlices { // the request that was in flight when the window closed
			continue
		}
		all[slice]++
		if s.inTime[i] {
			inTime[slice]++
		}
	}
	var shares []float64
	for i, n := range all {
		if n > 0 {
			shares = append(shares, inTime[i]/n)
		}
	}
	return upperQuartile(shares)
}

// p50 is the median latency over the requests as sent, each standing
// for its pool entry undisturbed (see quiet).
func (s *loopStats) p50() float64 { return median(quiet(s.entries, s.latMs)) }

// runClosedLoop drives clients closed-loop callers against the handler
// for the window: each sends its next request only after the previous
// answer. pick maps the shared request counter to a pool index, so the
// order of inputs is fixed by the seed however the clients interleave.
func runClosedLoop(stage string, h http.Handler, p *pool, counter *atomic.Int64, pick func(k int64) int, clients int, window time.Duration, traced bool) *loopStats {
	total := &loopStats{stage: stage}
	parts := make([]*loopStats, clients)
	before := mallocs()
	start := time.Now()
	stopAt := start.Add(window)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		parts[c] = &loopStats{}
		wg.Add(1)
		go func(st *loopStats) {
			defer wg.Done()
			cl := newInprocClient(h)
			for time.Now().Before(stopAt) {
				i := pick(counter.Add(1) - 1)
				e := &p.entries[i]
				t0 := time.Now()
				code, body := cl.post(e, traced)
				t1 := time.Now()
				a, oc := judge(e, code, body)
				why := ""
				if oc == outcomeFailed {
					why = fmt.Sprintf("entry %d status %d format %q want %q", i, code, a.Format, e.want)
				}
				st.record(i, t1.Sub(start), t1.Sub(t0), a, oc, why)
				if traced {
					st.traced = append(st.traced, tracedRequest{entry: i, start: t0, end: t1, cached: a.Cached, server: a.Trace})
				}
			}
		}(parts[c])
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	total.mallocs = mallocs() - before
	for _, st := range parts {
		total.merge(st)
	}
	return total
}

// replayer runs sampled traced requests through each layer's public
// function from outside, recording spans.
type replayer struct {
	rec    *recorder
	sel    *selector.Selector
	engine *nn.Infer32
	probs  []float64
	lim    sparse.Limits

	parseJSONNs, parseJSONNNZ float64
	selfUs                    []float64 // request - parse - fingerprint - selector.predict
}

func newReplayer(rec *recorder, sel *selector.Selector) (*replayer, error) {
	eng, err := nn.BuildInfer32(sel.Model, selector.InputShapes(sel.Cfg))
	if err != nil {
		return nil, fmt.Errorf("building the float32 engine for replay: %w", err)
	}
	return &replayer{rec: rec, sel: sel, engine: eng, probs: make([]float64, eng.Classes()), lim: sparse.DefaultLimits()}, nil
}

// innerSpans replays the two layers inside a selector.Predict call on
// their own and records them as children of the predict span.
func (rp *replayer) innerSpans(predict, op int, m *sparse.COO) {
	var chans []*tensor.Tensor
	rp.rec.timed(predict, op, "represent.normalize", true, func() { chans, _ = represent.Normalize(m, rp.sel.Cfg.Represent) })
	rp.rec.timed(predict, op, "nn.forward", true, func() { rp.engine.Predict(chans, rp.probs) })
}

// predictSpans replays selector.Predict under parent with its inner
// layers and returns the selector.predict duration in ns.
func (rp *replayer) predictSpans(parent, op int, m *sparse.COO) float64 {
	id := rp.rec.timed(parent, op, "selector.predict", true, func() { rp.sel.Predict(m) })
	rp.innerSpans(id, op, m)
	return rp.rec.spans[id-1].dur()
}

// request records the span tree of one traced request. parses is how
// many times the serving path decodes the body (twice through the
// router: once at the edge, once in the replica).
func (rp *replayer) request(op int, tr tracedRequest, e *entry, parses int) {
	root := rp.rec.add(0, op, "request", tr.start, tr.end, false)
	children := 0.0
	parseName := "sparse.parse_json"
	if e.contentType != "application/json" {
		parseName = "sparse.parse_mm"
	}
	var m *sparse.COO
	for i := 0; i < parses; i++ {
		id := rp.rec.timed(root, op, parseName, true, func() {
			m, _ = serve.DecodeMatrix(context.Background(), e.body, e.contentType, rp.lim)
		})
		d := rp.rec.spans[id-1].dur()
		children += d
		if parseName == "sparse.parse_json" {
			rp.parseJSONNs += d
			rp.parseJSONNNZ += float64(e.nnz)
		}
		id = rp.rec.timed(root, op, "sparse.fingerprint", true, func() { sparse.Fingerprint(m) })
		children += rp.rec.spans[id-1].dur()
	}
	// The server's own ?trace=1 block places queue and batch inside the
	// request and the rung inside the batch; the replayed
	// selector.predict hangs under the rung.
	server := map[string]obs.Span{}
	for _, sp := range tr.server {
		server[sp.Name] = sp
	}
	base := int64(tr.start.Sub(rp.rec.t0))
	addServer := func(parent int, serverName, name string) int {
		sp, ok := server[serverName]
		if !ok {
			return parent
		}
		return rp.rec.addNs(parent, op, name, base+sp.StartMicros*1000, base+(sp.StartMicros+sp.DurationMicros)*1000, false)
	}
	addServer(root, "queue", "serve.queue")
	rung := addServer(addServer(root, "batch", "serve.batch"), "rung:cnn", "serve.rung")
	if !tr.cached {
		children += rp.predictSpans(rung, op, m)
	}
	rp.selfUs = append(rp.selfUs, (rp.rec.spans[root-1].dur()-children)/1e3)
}

// sample picks up to replaySampleCap traced requests, evenly spaced.
func sample(traced []tracedRequest) []tracedRequest {
	if len(traced) <= replaySampleCap {
		return traced
	}
	out := make([]tracedRequest, 0, replaySampleCap)
	for i := 0; i < replaySampleCap; i++ {
		out = append(out, traced[i*len(traced)/replaySampleCap])
	}
	return out
}
