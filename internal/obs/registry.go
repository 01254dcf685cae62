// Package obs is the repo-wide observability layer: a dependency-free
// metrics registry (counters, gauges, histograms with quantile
// snapshots) rendering the Prometheus text exposition format,
// lightweight request tracing with a ring-buffered trace log, an admin
// HTTP surface (/metrics, /debug/pprof, /debug/traces, runtime stats)
// and structured training telemetry. It exists so the serving tier, the
// training pipeline and every future subsystem report through one
// instrument set instead of growing package-private copies — the
// ROADMAP's perf trajectory is only as real as the measurements behind
// it.
//
// Everything here is stdlib-only and safe for concurrent use; the hot
// paths (Counter.Inc, Histogram.Observe) are atomic and allocation
// free, so instruments can sit on the serving fast path.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous float64 value (stored as bits, so
// Set/Add/Value are lock free).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt stores an integer value.
func (g *Gauge) SetInt(v uint64) { g.Set(float64(v)) }

// Add adds delta (CAS loop on the bit pattern).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram with an atomic sum.
// Buckets follow Prometheus semantics (cumulative counts per upper
// bound, +Inf implicit), and Snapshot interpolates quantiles from the
// bucket counts, so dashboards get p50/p90/p99 without a client-side
// sliding window.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs))}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
		}
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0..1) by linear interpolation
// inside the bucket that contains it, the same estimate Prometheus's
// histogram_quantile computes server side. It returns NaN with no
// observations; a quantile landing in the +Inf bucket reports the
// highest finite bound (the histogram cannot see beyond its range).
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var prevCount uint64
	lower := 0.0
	for i, b := range h.bounds {
		c := h.buckets[i].Load()
		if float64(c) >= rank {
			span := float64(c - prevCount)
			if span == 0 {
				return b
			}
			return lower + (b-lower)*(rank-float64(prevCount))/span
		}
		prevCount = c
		lower = b
	}
	if len(h.bounds) == 0 {
		return math.NaN()
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramSnapshot is a point-in-time quantile summary.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot returns count, sum and interpolated p50/p90/p99.
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}

// write renders the histogram series for a metric name with an optional
// rendered label prefix (e.g. `endpoint="predict"`).
func (h *Histogram) write(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	for i, b := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, b, h.buckets[i].Load())
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.count.Load())
	fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, h.Sum())
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.count.Load())
}

// CounterVec is a counter family over a rendered label set, created
// lazily per label combination. Labels are the caller-rendered inside
// of the braces, e.g. `endpoint="predict",code="200"`; callers must
// keep the value space bounded (unbounded label values are a
// cardinality hazard).
type CounterVec struct {
	mu sync.Mutex
	m  map[string]*Counter
}

// With returns the counter for a rendered label set, creating it on
// first use.
func (cv *CounterVec) With(labels string) *Counter {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	c, ok := cv.m[labels]
	if !ok {
		c = &Counter{}
		cv.m[labels] = c
	}
	return c
}

// LabelValue is one (labels, value) pair in a vector snapshot.
type LabelValue struct {
	Labels string
	Value  uint64
}

// Snapshot returns the label sets in sorted order for deterministic
// rendering.
func (cv *CounterVec) Snapshot() []LabelValue {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	out := make([]LabelValue, 0, len(cv.m))
	for l, c := range cv.m {
		out = append(out, LabelValue{l, c.Value()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Labels < out[j].Labels })
	return out
}

// GaugeVec is a gauge family over a rendered label set — e.g. one
// health-state gauge per cluster replica.
type GaugeVec struct {
	mu sync.Mutex
	m  map[string]*Gauge
}

// With returns the gauge for a rendered label set, creating it on
// first use.
func (gv *GaugeVec) With(labels string) *Gauge {
	gv.mu.Lock()
	defer gv.mu.Unlock()
	g, ok := gv.m[labels]
	if !ok {
		g = &Gauge{}
		gv.m[labels] = g
	}
	return g
}

// GaugeLabelValue is one (labels, value) pair in a gauge vector
// snapshot.
type GaugeLabelValue struct {
	Labels string
	Value  float64
}

// Snapshot returns the label sets in sorted order for deterministic
// rendering.
func (gv *GaugeVec) Snapshot() []GaugeLabelValue {
	gv.mu.Lock()
	defer gv.mu.Unlock()
	out := make([]GaugeLabelValue, 0, len(gv.m))
	for l, g := range gv.m {
		out = append(out, GaugeLabelValue{l, g.Value()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Labels < out[j].Labels })
	return out
}

// HistogramVec is a histogram family over a rendered label set, all
// children sharing one bucket layout.
type HistogramVec struct {
	mu     sync.Mutex
	bounds []float64
	m      map[string]*Histogram
}

// With returns the histogram for a rendered label set, creating it on
// first use.
func (hv *HistogramVec) With(labels string) *Histogram {
	hv.mu.Lock()
	defer hv.mu.Unlock()
	h, ok := hv.m[labels]
	if !ok {
		h = newHistogram(hv.bounds)
		hv.m[labels] = h
	}
	return h
}

func (hv *HistogramVec) snapshotKeys() []string {
	hv.mu.Lock()
	defer hv.mu.Unlock()
	keys := make([]string, 0, len(hv.m))
	for k := range hv.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// family is one registered metric: name, help, type and the instrument.
type family struct {
	name string
	help string
	typ  string // "counter", "gauge", "histogram"

	counter    *Counter
	gauge      *Gauge
	gaugeFunc  func() float64
	histogram  *Histogram
	counterVec *CounterVec
	gaugeVec   *GaugeVec
	histVec    *HistogramVec
}

// Registry is an ordered, concurrent-safe set of metric families that
// renders itself in the Prometheus text format (version 0.0.4).
// Registration is idempotent by name: asking for an existing name with
// the same instrument kind returns the existing instrument, so
// subsystems can share a registry without coordinating init order; a
// kind conflict panics (it is a programming error, like a duplicate
// flag).
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

func (r *Registry) register(name, help, typ string, build func() *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, f.typ))
		}
		return f
	}
	f := build()
	f.name, f.help, f.typ = name, help, typ
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// Counter registers (or returns) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", func() *family { return &family{counter: &Counter{}} })
	if f.counter == nil {
		panic(fmt.Sprintf("obs: metric %q is a labeled counter, not a plain counter", name))
	}
	return f.counter
}

// Gauge registers (or returns) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", func() *family { return &family{gauge: &Gauge{}} })
	if f.gauge == nil {
		panic(fmt.Sprintf("obs: metric %q is a gauge func, not a settable gauge", name))
	}
	return f.gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the fit for runtime stats (goroutines, heap, uptime) where polling a
// setter would only add staleness.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", func() *family { return &family{gaugeFunc: fn} })
}

// Histogram registers (or returns) a fixed-bucket histogram.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, "histogram", func() *family { return &family{histogram: newHistogram(bounds)} })
	if f.histogram == nil {
		panic(fmt.Sprintf("obs: metric %q is a histogram vec, not a plain histogram", name))
	}
	return f.histogram
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string) *CounterVec {
	f := r.register(name, help, "counter", func() *family {
		return &family{counterVec: &CounterVec{m: map[string]*Counter{}}}
	})
	if f.counterVec == nil {
		panic(fmt.Sprintf("obs: metric %q is a plain counter, not a labeled one", name))
	}
	return f.counterVec
}

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string) *GaugeVec {
	f := r.register(name, help, "gauge", func() *family {
		return &family{gaugeVec: &GaugeVec{m: map[string]*Gauge{}}}
	})
	if f.gaugeVec == nil {
		panic(fmt.Sprintf("obs: metric %q is a plain gauge, not a labeled one", name))
	}
	return f.gaugeVec
}

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64) *HistogramVec {
	f := r.register(name, help, "histogram", func() *family {
		bs := make([]float64, len(bounds))
		copy(bs, bounds)
		sort.Float64s(bs)
		return &family{histVec: &HistogramVec{bounds: bs, m: map[string]*Histogram{}}}
	})
	if f.histVec == nil {
		panic(fmt.Sprintf("obs: metric %q is a plain histogram, not a labeled one", name))
	}
	return f.histVec
}

// formatValue renders a float without exponent surprises for integral
// values ("1", not "1e+00").
func formatValue(v float64) string {
	return fmt.Sprintf("%g", v)
}

// WriteTo renders every family in registration order in the Prometheus
// text exposition format.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.RLock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.RUnlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		switch {
		case f.counter != nil:
			fmt.Fprintf(&b, "%s %d\n", f.name, f.counter.Value())
		case f.gauge != nil:
			fmt.Fprintf(&b, "%s %s\n", f.name, formatValue(f.gauge.Value()))
		case f.gaugeFunc != nil:
			fmt.Fprintf(&b, "%s %s\n", f.name, formatValue(f.gaugeFunc()))
		case f.histogram != nil:
			f.histogram.write(&b, f.name, "")
		case f.counterVec != nil:
			for _, e := range f.counterVec.Snapshot() {
				fmt.Fprintf(&b, "%s{%s} %d\n", f.name, e.Labels, e.Value)
			}
		case f.gaugeVec != nil:
			for _, e := range f.gaugeVec.Snapshot() {
				fmt.Fprintf(&b, "%s{%s} %s\n", f.name, e.Labels, formatValue(e.Value))
			}
		case f.histVec != nil:
			for _, k := range f.histVec.snapshotKeys() {
				f.histVec.With(k).write(&b, f.name, k)
			}
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}

// DefLatencyBuckets covers sub-millisecond cache hits through
// multi-second cold predictions on big matrices.
func DefLatencyBuckets() []float64 {
	return []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5}
}

// DefEpochBuckets covers per-epoch wall-clock from sub-second toy runs
// through multi-minute full-corpus epochs.
func DefEpochBuckets() []float64 {
	return []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}
}
