package serve

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/selector"
	"repro/internal/sparse"
)

func pred(f sparse.Format) selector.Prediction {
	return selector.Prediction{Format: f, Probs: map[sparse.Format]float64{f: 1}}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newPredictionCache(2)
	c.Add(1, pred(sparse.FormatCSR), 1)
	c.Add(2, pred(sparse.FormatELL), 1)
	if _, _, ok := c.Get(1); !ok { // touch 1: now 2 is LRU
		t.Fatal("missing entry 1")
	}
	c.Add(3, pred(sparse.FormatDIA), 1) // evicts 2
	if _, _, ok := c.Get(2); ok {
		t.Fatal("LRU entry 2 survived eviction")
	}
	if _, _, ok := c.Get(1); !ok {
		t.Fatal("recently used entry 1 was evicted")
	}
	if _, _, ok := c.Get(3); !ok {
		t.Fatal("fresh entry 3 missing")
	}
	if _, _, ev := c.Stats(); ev != 1 {
		t.Fatalf("evictions %d, want 1", ev)
	}
}

func TestCacheUpdateExisting(t *testing.T) {
	c := newPredictionCache(4)
	c.Add(7, pred(sparse.FormatCSR), 1)
	c.Add(7, pred(sparse.FormatDIA), 2)
	p, gen, ok := c.Get(7)
	if !ok || p.Format != sparse.FormatDIA || gen != 2 {
		t.Fatalf("got %v gen %d ok %v", p.Format, gen, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("len %d, want 1", c.Len())
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newPredictionCache(0)
	c.Add(1, pred(sparse.FormatCSR), 1)
	if _, _, ok := c.Get(1); ok {
		t.Fatal("disabled cache returned a hit")
	}
}

func TestCacheReset(t *testing.T) {
	c := newPredictionCache(8)
	for k := uint64(0); k < 5; k++ {
		c.Add(k, pred(sparse.FormatCSR), 1)
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("len %d after reset", c.Len())
	}
	for k := uint64(0); k < 5; k++ {
		if _, _, ok := c.Get(k); ok {
			t.Fatalf("entry %d survived reset", k)
		}
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newPredictionCache(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := uint64((g*31 + i) % 64)
				if i%3 == 0 {
					c.Add(k, pred(sparse.FormatCSR), uint64(g))
				} else {
					c.Get(k)
				}
				if i%100 == 0 && g == 0 {
					c.Reset()
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Fatalf("cache overflowed capacity: %d", c.Len())
	}
}

func TestMetricsRender(t *testing.T) {
	m := newMetrics()
	m.request("predict", 200, time.Now().Add(-2*time.Millisecond))
	m.request("predict", 400, time.Now())
	m.predictions.With(`format="CSR"`).Inc()
	m.cacheHits.Add(3)

	var b strings.Builder
	if _, err := m.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`serve_requests_total{code="200",endpoint="predict"} 1`,
		`serve_requests_total{code="400",endpoint="predict"} 1`,
		`serve_predictions_total{format="CSR"} 1`,
		"serve_cache_hits_total 3",
		`serve_request_seconds_count{endpoint="predict"} 2`,
		"# TYPE serve_requests_total counter",
		"# TYPE serve_cache_entries gauge",
		"# TYPE serve_request_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// The 2ms observation must land in every bucket with bound >= 2.5ms
	// but not the 1ms one.
	if !strings.Contains(out, `serve_request_seconds_bucket{endpoint="predict",le="0.0025"}`) {
		t.Error("expected 2.5ms bucket line")
	}
}

// The histogram primitive's own unit tests (cumulative buckets, atomic
// concurrent sums) moved to internal/obs with the instrument layer; see
// obs.TestHistogramCumulative and the registry race hammer.
