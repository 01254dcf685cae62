package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/selector"
	"repro/internal/sparse"
)

// wantTrace reports whether the client asked for the per-stage span
// block in the response body (?trace=1 or an X-Trace: 1 header).
func wantTrace(r *http.Request) bool {
	if r.URL.RawQuery != "" {
		if v := r.URL.Query().Get("trace"); v == "1" || v == "true" {
			return true
		}
	}
	v := r.Header.Get("X-Trace")
	return v == "1" || v == "true"
}

// answer is the JSON body of a 200 to POST /v1/predict. Probs maps
// format names to probabilities. Rung reports which ladder layer
// produced the answer: "cnn", "dtree" or "csr". TraceID always carries
// the request's span ID (it is also the X-Trace-Id header); the
// per-stage Trace block is included when the client asks for it with
// ?trace=1. Coalesced marks an answer shared with an in-flight
// computation for the same fingerprint (a duplicate that did not cost a
// second forward pass).
type answer struct {
	Format          string     `json:"format"`
	Probs           probs      `json:"probs,omitempty"`
	FellBack        bool       `json:"fell_back"`
	Reason          string     `json:"reason,omitempty"`
	Cached          bool       `json:"cached"`
	Coalesced       bool       `json:"coalesced,omitempty"`
	Rung            string     `json:"rung"`
	ModelGeneration uint64     `json:"model_generation"`
	TraceID         string     `json:"trace_id,omitempty"`
	Trace           []obs.Span `json:"trace,omitempty"`
}

// probs is a prediction's probabilities, rendered as encoding/json
// renders a map[string]float64 of the format names — names in sorted
// order, each number in its float64 encoding — from the prediction's
// own map, with no map of names, no reflection and no sort of
// reflected keys on the way.
type probs map[sparse.Format]float64

func (p probs) MarshalJSON() ([]byte, error) {
	var keys [16]sparse.Format // every format, on the stack
	fs := keys[:0]
	for f := range p {
		fs = append(fs, f)
	}
	slices.SortFunc(fs, func(a, b sparse.Format) int { return strings.Compare(a.String(), b.String()) })
	b := make([]byte, 0, 2+32*len(fs))
	b = append(b, '{')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		// A format name is letters, digits and parentheses: nothing to
		// escape.
		b = append(b, '"')
		b = append(b, f.String()...)
		b = append(b, '"', ':')
		v := p[f]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return nil, fmt.Errorf("serve: %s probability %v has no JSON form", f, v)
		}
		// encoding/json's float64 form: exponent notation below 1e-6 and
		// from 1e21, without a leading zero in the exponent.
		form := byte('f')
		if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			form = 'e'
		}
		b = strconv.AppendFloat(b, v, form, -1, 64)
		if n := len(b); form == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return append(b, '}'), nil
}

// predictMeta carries per-request context between the handler and
// predictOne: the router's retry mark and the client's timing in, the
// cache outcome (the X-Cache-Status header) back out.
type predictMeta struct {
	retried     bool    // X-Retry-Attempt named a router retry
	cacheStatus string  // "hit" or "miss"
	coalesced   bool    // attached to an in-flight duplicate
	clientSec   float64 // client-reported SpMV seconds (0 = none)
}

// errorResponse is the JSON body of every non-200 answer.
type errorResponse struct {
	Error string `json:"error"`
}

func makeAnswer(p selector.Prediction, gen uint64, cached bool, rung string) answer {
	r := answer{
		Format:          p.Format.String(),
		Probs:           p.Probs,
		FellBack:        p.FellBack,
		Cached:          cached,
		Rung:            rung,
		ModelGeneration: gen,
	}
	if p.Reason != nil {
		r.Reason = p.Reason.Error()
	}
	return r
}

// Handler returns the server's HTTP routes. It is exposed separately
// from Serve so tests (and embedders) can mount the service on any
// listener or mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", s.handlePredict)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := http.StatusOK
	// The router marks a retry of a request it already sent
	// somewhere; those are labeled separately in serve_requests_total so
	// fleet-level request accounting is never double-counted by failover.
	meta := &predictMeta{retried: isRetryAttempt(r.Header.Get("X-Retry-Attempt"))}
	// Every predict request gets a trace: the span ID goes out as the
	// X-Trace-Id header (success or failure), the per-stage spans are
	// recorded along the pipeline, and the finished trace lands in the
	// /debug/traces ring on the admin listener.
	tr := obs.NewTrace()
	w.Header().Set("X-Trace-Id", tr.ID())
	defer func() {
		s.met.requestRetriable("predict", code, start, meta.retried)
		s.traces.Finish(tr, strconv.Itoa(code))
	}()

	if r.Method != http.MethodPost {
		code = http.StatusMethodNotAllowed
		writeJSON(w, code, errorResponse{Error: "POST only"})
		return
	}
	// The draining check and the inflight registration are what make
	// graceful shutdown sound: Shutdown flips draining first, then
	// waits for the inflight group, so every accepted request drains
	// and every later one gets an immediate 503.
	s.inflight.Add(1)
	defer s.inflight.Done()
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)
	if s.draining.Load() {
		code = http.StatusServiceUnavailable
		writeJSON(w, code, errorResponse{Error: "server is draining"})
		return
	}

	// The per-request deadline budget: parse, queueing and prediction
	// together must finish inside RequestTimeout, so one slow request
	// cannot occupy a worker indefinitely. A router-propagated client
	// deadline (X-Request-Deadline, unix milliseconds) tightens the
	// budget further — the replica then sheds work the client has
	// already given up on instead of computing answers into the void.
	budget := s.cfg.RequestTimeout
	if remaining, ok := headerDeadline(r); ok {
		if remaining <= 0 {
			code = http.StatusTooManyRequests
			s.met.admissionRejects.With(`reason="expired"`).Inc()
			if s.adm != nil {
				s.adm.shed()
			}
			w.Header().Set("Retry-After", s.retryAfter())
			writeJSON(w, code, errorResponse{Error: "request deadline already expired"})
			return
		}
		if remaining < budget {
			budget = remaining
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()
	ctx = obs.WithTrace(ctx, tr)

	// parse is the scan alone: the body is validated and fingerprinted
	// here and its values stay text — a miss goes on with the
	// coordinates the scan kept, so no request has a span for converting
	// anything.
	parseStart := time.Now()
	sc, err := s.scanBody(ctx, r)
	tr.ObserveSpan("parse", parseStart)
	if err != nil {
		code = ingestStatus(err)
		writeJSON(w, code, errorResponse{Error: err.Error()})
		return
	}
	defer scannedPool.Put(sc)
	meta.clientSec = sc.SpmvSeconds()
	// A client whose bodies are never "streamed" pays the full decode on
	// every request, hits included; this is where that shows.
	if sc.Streamed() {
		s.met.parsed.With(`path="streamed"`).Inc()
	} else {
		s.met.parsed.With(`path="built"`).Inc()
	}

	resp, err := s.predictOne(ctx, sc, meta)
	if meta.cacheStatus != "" {
		w.Header().Set("X-Cache-Status", meta.cacheStatus)
	}
	switch {
	case err == nil:
		resp.Coalesced = meta.coalesced
		resp.TraceID = tr.ID()
		if wantTrace(r) {
			resp.Trace = tr.Spans()
		}
		writeJSON(w, code, resp)
	case errors.Is(err, errOverloaded), errors.Is(err, errDeadlineTooTight), errors.Is(err, errExpired):
		// Shed, not failed: tell the client when to come back. With the
		// overload plane on, Retry-After is derived from the observed
		// queue drain rate instead of a constant — clients back off for
		// as long as the backlog actually needs.
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", s.retryAfter())
		writeJSON(w, code, errorResponse{Error: err.Error()})
	case errors.Is(err, errShutdown):
		code = http.StatusServiceUnavailable
		writeJSON(w, code, errorResponse{Error: err.Error()})
	default: // client went away or request budget spent mid-wait
		code = http.StatusServiceUnavailable
		writeJSON(w, code, errorResponse{Error: err.Error()})
	}
}

// IngestStatus maps an ingestion failure onto the typed status
// taxonomy: 413 for resource-cap violations, 422 for well-formed but
// unsupported documents, 400 for everything malformed. Exported so the
// cluster router answers decode failures with the same codes a replica
// would.
func IngestStatus(err error) int {
	switch {
	case errors.Is(err, sparse.ErrTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, sparse.ErrUnsupported):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusBadRequest
	}
}

func ingestStatus(err error) int { return IngestStatus(err) }

// headerDeadline reads the router-propagated client deadline
// (X-Request-Deadline, unix milliseconds) and returns the remaining
// budget. ok is false when the header is absent or malformed — an
// unparseable deadline is ignored, never a rejection.
func headerDeadline(r *http.Request) (time.Duration, bool) {
	v := r.Header.Get("X-Request-Deadline")
	if v == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms <= 0 {
		return 0, false
	}
	return time.Until(time.UnixMilli(ms)), true
}

// retryAfter renders the Retry-After header for a shed response:
// drain-rate derived when the overload plane is on, the legacy constant
// otherwise.
func (s *Server) retryAfter() string {
	if s.adm != nil {
		return strconv.Itoa(s.adm.retryAfterSeconds())
	}
	return "1"
}

// admitReasonLabel classifies an admission rejection for the
// serve_admission_rejects_total counter.
func admitReasonLabel(err error) string {
	if errors.Is(err, errDeadlineTooTight) {
		return `reason="deadline"`
	}
	return `reason="queue"`
}

// isRetryAttempt reports whether an X-Retry-Attempt header value names
// a retry (attempt number >= 1; the first attempt is 0 or an
// absent header).
func isRetryAttempt(v string) bool {
	if v == "" {
		return false
	}
	n, err := strconv.Atoi(v)
	return err == nil && n >= 1
}

// scanBody reads and scans the request body, bounded by MaxBodyBytes
// and cfg.Limits, into a Scanned from the pool whose body buffer and
// coordinate arrays earlier requests grew. The caller puts it back once
// nothing reads it. (The router reads with ReadBody into a buffer of
// its own each time: a RoundTripper may still be reading a forwarded
// body after RoundTrip has returned.)
func (s *Server) scanBody(ctx context.Context, r *http.Request) (*Scanned, error) {
	sc := scannedPool.Get().(*Scanned)
	var err error
	if sc.body, err = readBody(r, s.cfg.MaxBodyBytes, sc.body); err == nil {
		err = sc.scan(ctx, sc.body, r.Header.Get("Content-Type"), s.cfg.Limits)
	}
	if err != nil {
		scannedPool.Put(sc)
		return nil, err
	}
	return sc, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
	s.met.request("healthz", http.StatusOK, start)
}

// handleReadyz reports readiness with degradation detail: a healthy
// replica answers "ready rung=cnn", one running on the decision-tree
// rung behind an open breaker answers 200 "ready rung=dtree" (degraded
// but still worth routing to), and a replica that is draining, has no
// model, or is down to the CSR floor answers 503. The router's active
// prober parses the rung to distinguish healthy from degraded replicas
// without taking them out of rotation.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := http.StatusOK
	var msg string
	rung := s.CurrentRung()
	switch {
	case !s.Ready():
		code = http.StatusServiceUnavailable
		msg = "not ready\n"
	case rung == rungCSR:
		// Hard-down: breaker open and no tree rung — answers would be
		// the unconditional CSR floor, no better than any other
		// replica's worst case. Shed active routing.
		code = http.StatusServiceUnavailable
		msg = "degraded rung=csr\n"
	default:
		msg = "ready rung=" + rung + "\n"
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	io.WriteString(w, msg)
	s.met.request("readyz", code, start)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.WriteTo(w)
	s.met.request("metrics", http.StatusOK, start)
}

var formatLabels = newLabelTable(func(f sparse.Format) string {
	return fmt.Sprintf("format=%q", f.String())
}, sparse.AllFormats()...)

// formatLabel renders the label set for a served prediction.
func formatLabel(f sparse.Format) string {
	return formatLabels.label(f)
}

// reasonLabel classifies a fallback cause into a bounded label set
// (unbounded label values are a Prometheus cardinality hazard).
func reasonLabel(err error) string {
	switch {
	case errors.Is(err, selector.ErrNoModel):
		return `reason="no_model"`
	case errors.Is(err, selector.ErrBadInput):
		return `reason="bad_input"`
	case errors.Is(err, selector.ErrBadOutput):
		return `reason="bad_output"`
	default:
		return `reason="other"`
	}
}
