package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchPredict drives the full handler path — parse, cache, queue hop,
// ladder, render — without network overhead.
func benchPredict(b *testing.B, mutate func(*Config)) {
	s, _ := newTestServer(b, mutate)
	h := s.Handler()
	body := matrixJSON(24, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rr.Code, rr.Body.String())
		}
	}
}

// BenchmarkPredictCached is the steady-state hot path: every request
// after the first is answered from the prediction cache. Guarded by
// scripts/benchgate.
func BenchmarkPredictCached(b *testing.B) {
	benchPredict(b, nil)
}

// BenchmarkPredictUncached forces every request through the queue hop
// and a full forward pass (cache disabled).
func BenchmarkPredictUncached(b *testing.B) {
	benchPredict(b, func(c *Config) { c.CacheSize = 0 })
}

// BenchmarkPredictFeedback is the cached hot path with feedback logging
// enabled — the overhead budget for the continual-learning capture
// (Record is non-blocking; the cost allowed on the serving path is
// building the entry and the channel send). Guarded by
// scripts/benchgate.
func BenchmarkPredictFeedback(b *testing.B) {
	benchPredict(b, func(c *Config) {
		c.FeedbackDir = b.TempDir()
		c.FeedbackEstimates = false
	})
}
