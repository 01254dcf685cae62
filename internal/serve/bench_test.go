package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/sparse"
)

// benchPredict drives the full handler path — parse, cache, queue hop,
// ladder, render — without network overhead.
func benchPredict(b *testing.B, mutate func(*Config)) {
	benchPredictBody(b, matrixJSON(24, 2), false, mutate)
}

// benchPredictBody posts body to the handler b.N times; chunked sends it
// without Content-Length, as a chunked client does.
func benchPredictBody(b *testing.B, body []byte, chunked bool, mutate func(*Config)) {
	s, _ := newTestServer(b, mutate)
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body))
		if chunked {
			req.ContentLength = -1
		}
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

// BenchmarkPredictCachedTypical is the same path on the 2,088-nonzero
// body of BenchmarkDecodeJSON: what a hit costs at the size of a typical
// request, where the scan is most of it.
func BenchmarkPredictCachedTypical(b *testing.B) {
	body, _ := benchBodies(b)
	benchPredictBody(b, body, false, nil)
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
	benchPredict(b, func(c *Config) { c.FeedbackDir = b.TempDir() })
}

// BenchmarkPredictUncachedTypical is a miss at the size of a typical
// request: scan, represent, forward, render — and no value converted,
// which at 2,088 17-digit values used to be the largest piece.
func BenchmarkPredictUncachedTypical(b *testing.B) {
	body, _ := benchBodies(b)
	benchPredictBody(b, body, false, func(c *Config) { c.CacheSize = 0 })
}

// BenchmarkPredictCachedTypicalChunked and
// BenchmarkPredictUncachedTypicalChunked are the hit and the miss on the
// same body sent without Content-Length, as a chunked client and the
// benchmark's in-process client send it: the read cannot size its
// buffer up front.
func BenchmarkPredictCachedTypicalChunked(b *testing.B) {
	body, _ := benchBodies(b)
	benchPredictBody(b, body, true, nil)
}

func BenchmarkPredictUncachedTypicalChunked(b *testing.B) {
	body, _ := benchBodies(b)
	benchPredictBody(b, body, true, func(c *Config) { c.CacheSize = 0 })
}

// BenchmarkPredictFeedbackTypical is BenchmarkPredictCachedTypical with
// feedback capture on: the guard that a hit which is logged with its
// pattern costs a hit plus a channel send (BenchmarkPredictFeedback's
// 24×24 body is too small to show anything else).
func BenchmarkPredictFeedbackTypical(b *testing.B) {
	body, _ := benchBodies(b)
	benchPredictBody(b, body, false, func(c *Config) { c.FeedbackDir = b.TempDir() })
}

// benchBodies renders one 300×300 banded matrix (2,088 nonzeros with
// 17-digit values, the shape and size of a typical request) in both
// body encodings.
func benchBodies(b testing.TB) (jsonBody, mmBody []byte) {
	const n, band = 300, 3
	var es []sparse.Entry
	for i := 0; i < n; i++ {
		for j := max(i-band, 0); j <= min(i+band, n-1); j++ {
			es = append(es, sparse.Entry{Row: i, Col: j, Val: math.Sin(float64(i*n + j + 1))})
		}
	}
	m := sparse.MustCOO(n, n, es)
	req := predictRequest{Rows: n, Cols: n}
	for _, e := range es {
		req.Entries = append(req.Entries, [3]float64{float64(e.Row), float64(e.Col), e.Val})
	}
	jsonBody, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	var mm bytes.Buffer
	if err := sparse.WriteMatrixMarket(&mm, m); err != nil {
		b.Fatal(err)
	}
	return jsonBody, mm.Bytes()
}

func benchDecode(b *testing.B, body []byte, contentType string) {
	lim := sparse.DefaultLimits()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeMatrixMeta(context.Background(), body, contentType, lim); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeJSON and BenchmarkDecodeMatrixMarket are the parse
// stage of a request on the same matrix in its two encodings: body
// bytes to canonical COO. Guarded by scripts/benchgate.
func BenchmarkDecodeJSON(b *testing.B) {
	body, _ := benchBodies(b)
	benchDecode(b, body, "application/json")
}

// BenchmarkDecodePatternJSON is the parse stage of a cache hit: the same
// body to its fingerprint, no value converted and no matrix built.
func BenchmarkDecodePatternJSON(b *testing.B) {
	body, _ := benchBodies(b)
	benchScan(b, body)
}

// BenchmarkDecodePatternJSONSpaced is BenchmarkDecodePatternJSON on the
// body as json.MarshalIndent writes it: every triplet takes the token
// path.
func BenchmarkDecodePatternJSONSpaced(b *testing.B) {
	body, _ := benchBodies(b)
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, body, "", "  "); err != nil {
		b.Fatal(err)
	}
	benchScan(b, spaced.Bytes())
}

func benchScan(b *testing.B, body []byte) {
	lim := sparse.DefaultLimits()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := ScanMatrix(context.Background(), body, "application/json", lim)
		if err != nil || !sc.Streamed() {
			b.Fatalf("streamed %v, err %v", err == nil && sc.Streamed(), err)
		}
	}
}

func BenchmarkDecodeMatrixMarket(b *testing.B) {
	_, body := benchBodies(b)
	benchDecode(b, body, "text/matrix-market")
}
