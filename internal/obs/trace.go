package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Request tracing. A Trace is minted at HTTP ingress (one span ID per
// request), carried through the request pipeline — handler → queue →
// pool worker → ladder rung → forward pass — and each stage records a
// named span with its start offset and duration. Completed traces land
// in a fixed-size ring buffer served at /debug/traces, so "why was
// that request slow" is answerable from a running server without any
// external collector.

// Span is one named, timed stage of a request.
type Span struct {
	// Name identifies the stage: "parse", "queue", "rung:cnn", …
	Name string `json:"name"`
	// StartMicros is the span start as an offset from the trace start.
	StartMicros int64 `json:"start_us"`
	// DurationMicros is the span length.
	DurationMicros int64 `json:"dur_us"`
}

// Trace is one request's span collection. All methods are safe for
// concurrent use: the handler and a pool worker may append spans from
// different goroutines.
type Trace struct {
	id    string
	start time.Time

	mu    sync.Mutex
	spans []Span
	done  bool
}

// traceIDCounter salts IDs so they stay unique even if the entropy
// reader ever fails.
var traceIDCounter atomic.Uint64

// newTraceID mints a 16-hex-char random ID.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.BigEndian.PutUint64(b[:], uint64(time.Now().UnixNano())^traceIDCounter.Add(1)<<32)
	}
	return hex.EncodeToString(b[:])
}

// NewTrace starts a trace now with a fresh ID.
func NewTrace() *Trace {
	return &Trace{id: newTraceID(), start: time.Now()}
}

// ID returns the trace's span ID (stable for the trace's lifetime).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start returns the trace's start time.
func (t *Trace) Start() time.Time { return t.start }

// ObserveSpan records a completed stage that ran from start to now.
func (t *Trace) ObserveSpan(name string, start time.Time) {
	t.ObserveSpanDur(name, start, time.Since(start))
}

// ObserveSpanDur records a completed stage with an explicit duration.
// Recording onto a nil trace is a no-op, so instrumented stages do not
// need to know whether tracing reached them.
func (t *Trace) ObserveSpanDur(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		// A straggler stage (e.g. a timed-out inference finishing after
		// the response went out) must not mutate a published trace.
		return
	}
	t.spans = append(t.spans, Span{
		Name:           name,
		StartMicros:    start.Sub(t.start).Microseconds(),
		DurationMicros: d.Microseconds(),
	})
}

// Spans returns a copy of the recorded spans sorted by start offset.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartMicros < out[j].StartMicros })
	return out
}

// TraceRecord is one finished trace as published to /debug/traces.
type TraceRecord struct {
	ID            string `json:"id"`
	Start         string `json:"start"` // RFC3339Nano wall clock
	DurationMicro int64  `json:"dur_us"`
	Status        string `json:"status,omitempty"` // e.g. HTTP code or outcome class
	Spans         []Span `json:"spans"`
}

// finish seals the trace and renders its record; later ObserveSpan
// calls are dropped.
func (t *Trace) finish(status string) TraceRecord {
	t.mu.Lock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	t.done = true
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartMicros < spans[j].StartMicros })
	return TraceRecord{
		ID:            t.id,
		Start:         t.start.Format(time.RFC3339Nano),
		DurationMicro: time.Since(t.start).Microseconds(),
		Status:        status,
		Spans:         spans,
	}
}

// TraceLog is a fixed-capacity ring buffer of finished traces.
type TraceLog struct {
	mu   sync.Mutex
	buf  []TraceRecord
	next int
	full bool
}

// NewTraceLog builds a ring buffer holding the last capacity traces
// (minimum 16).
func NewTraceLog(capacity int) *TraceLog {
	if capacity < 16 {
		capacity = 16
	}
	return &TraceLog{buf: make([]TraceRecord, capacity)}
}

// Finish seals tr with a status string and appends its record to the
// ring, evicting the oldest entry when full. Nil receivers and nil
// traces are ignored.
func (l *TraceLog) Finish(tr *Trace, status string) TraceRecord {
	if tr == nil {
		return TraceRecord{}
	}
	rec := tr.finish(status)
	if l == nil {
		return rec
	}
	l.mu.Lock()
	l.buf[l.next] = rec
	l.next = (l.next + 1) % len(l.buf)
	if l.next == 0 {
		l.full = true
	}
	l.mu.Unlock()
	return rec
}

// Snapshot returns the buffered traces, newest first.
func (l *TraceLog) Snapshot() []TraceRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.next
	if l.full {
		n = len(l.buf)
	}
	out := make([]TraceRecord, 0, n)
	// Walk backwards from the most recent write.
	for i := 0; i < n; i++ {
		idx := (l.next - 1 - i + len(l.buf)) % len(l.buf)
		out = append(out, l.buf[idx])
	}
	return out
}

// Handler serves the ring as JSON: {"traces": [...]} newest first.
func (l *TraceLog) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Traces []TraceRecord `json:"traces"`
		}{l.Snapshot()})
	})
}

// traceKey carries a *Trace through a context.
type traceKey struct{}

// WithTrace attaches tr to ctx so downstream stages (pool workers, the
// inference goroutine) can record spans without explicit plumbing.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns the trace attached to ctx, or nil (all Trace
// methods are nil-safe, so callers never need to check).
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}
