package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/selector"
	"repro/internal/sparse"
)

// TestHitCostDoesNotGrowWithBody: a replica reads and scans a request
// into memory earlier requests grew, so once warm a hit allocates the
// same objects at 10,000 nonzeros as at 100, and within a kilobyte the
// same bytes — with Content-Length, and without it as a chunked client
// sends.
func TestHitCostDoesNotGrowWithBody(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	s, _ := newTestServer(t, nil)
	h := s.Handler()
	// A collection empties the pool, and a hit on another P than the last
	// one does not see what that one put back; the steady state has
	// neither between two hits.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, chunked := range []bool{false, true} {
		var allocs [2]float64
		var size [2]uint64
		for i, n := range []int{34, 3334} { // 100 and 10,000 nonzeros
			body := matrixJSON(n, 1)
			hit := func() {
				req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(body))
				if chunked {
					req.ContentLength = -1
				}
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, req)
				if rr.Code != http.StatusOK {
					t.Fatalf("%d nonzeros: status %d: %s", 3*n-2, rr.Code, rr.Body)
				}
			}
			hit() // the miss that fills the cache
			allocs[i] = testing.AllocsPerRun(20, hit)
			size[i] = allocBytesPerRun(20, hit)
		}
		t.Logf("chunked=%v: a hit allocates %v objects / %d B at 100 nonzeros, %v / %d B at 10,000", chunked, allocs[0], size[0], allocs[1], size[1])
		if allocs[0] != allocs[1] {
			t.Errorf("chunked=%v: %v allocations a hit at 100 nonzeros, %v at 10,000", chunked, allocs[0], allocs[1])
		}
		if size[1] > size[0]+1024 {
			t.Errorf("chunked=%v: %d bytes allocated a hit at 100 nonzeros, %d at 10,000", chunked, size[0], size[1])
		}
	}
}

// TestScanIntoReusedScanned: one Scanned that every other body was
// scanned into first — accepted and refused, streamed and built, JSON
// and Matrix Market, larger and smaller — scans each body to what a
// fresh ScanMatrix makes of it: the same refusal, or the same
// fingerprint, Streamed, spmv_seconds and pattern.
func TestScanIntoReusedScanned(t *testing.T) {
	canonical, shuffled, split, zero := equivalentBodies()
	typical, typicalMM := benchBodies(t)
	bodies := [][]byte{canonical, shuffled, split, zero, typical, typicalMM, bigJSON(3 * sparse.CtxCheckEvery), patternBody("1", "1e-300", "2")}
	for _, s := range predictJSONSeeds {
		bodies = append(bodies, []byte(s))
	}
	lim := sparse.Limits{MaxRows: 1 << 14, MaxCols: 1 << 14, MaxNNZ: 1 << 14, MaxLineBytes: 1 << 8}
	reused := new(Scanned)
	for _, order := range []string{"forward", "backward"} {
		for i := range bodies {
			body := bodies[i]
			if order == "backward" {
				body = bodies[len(bodies)-1-i]
			}
			want, wantErr := ScanMatrix(context.Background(), body, "", lim)
			gotErr := reused.scan(context.Background(), body, "", lim)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%s, body %q: reused %v, fresh %v", order, body, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if reused.Fingerprint() != want.Fingerprint() || reused.Streamed() != want.Streamed() || reused.SpmvSeconds() != want.SpmvSeconds() {
				t.Fatalf("%s, body %q: reused %x streamed %v, fresh %x streamed %v", order, body, reused.Fingerprint(), reused.Streamed(), want.Fingerprint(), want.Streamed())
			}
			got, err := reused.Pattern()
			if err != nil {
				t.Fatal(err)
			}
			wp, _ := want.Pattern()
			if !slices.Equal(got.Rows, wp.Rows) || !slices.Equal(got.Cols, wp.Cols) {
				t.Fatalf("%s, body %q: reused and fresh scans give different patterns", order, body)
			}
		}
	}
}

// TestScratchReuseNeverLeaks: eight clients post distinct bodies —
// canonical JSON, the same triplets shuffled, Matrix Market; with
// Content-Length and without — to one server whose cache is too small
// for them, so hits and misses interleave and each request scans into
// memory another body was scanned into, with every answer logged and
// mirrored through a shadow. Every answer is the model's offline
// prediction for its own body, and every logged pattern rebuilds to its
// own fingerprint.
func TestScratchReuseNeverLeaks(t *testing.T) {
	dir := t.TempDir()
	s, model := newTestServer(t, func(c *Config) {
		c.CacheSize = 4
		c.FeedbackDir = dir
		c.ShadowSampleN = 1
		c.PredictTimeout = time.Minute
	})
	cand := filepath.Join(t.TempDir(), "candidate.gob")
	saveTestModel(t, cand, 7)
	if err := s.LoadShadow(cand); err != nil {
		t.Fatal(err)
	}
	sel, err := selector.LoadFile(model)
	if err != nil {
		t.Fatal(err)
	}

	type post struct {
		body, contentType string
		want              response
	}
	var posts []post
	for i := 0; i < 12; i++ {
		canonical := matrixJSON(20+13*i, 1+i%3)
		m, err := DecodeMatrix(context.Background(), canonical, "", sparse.DefaultLimits())
		if err != nil {
			t.Fatal(err)
		}
		f, ps, err := sel.PredictPattern(&m.Pattern)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceResponse(makeAnswer(selector.Prediction{Format: f, Probs: ps}, 1, false, rungCNN))

		var req predictRequest
		json.Unmarshal(canonical, &req)
		slices.Reverse(req.Entries)
		shuffled, _ := json.Marshal(req)
		var mm bytes.Buffer
		if err := sparse.WriteMatrixMarket(&mm, m); err != nil {
			t.Fatal(err)
		}
		posts = append(posts,
			post{string(canonical), "application/json", want},
			post{string(shuffled), "application/json", want},
			post{mm.String(), "text/matrix-market", want})
	}

	h := s.Handler()
	var hits, misses atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 30; k++ {
				p := posts[(g*5+k*7)%len(posts)]
				req := httptest.NewRequest("POST", "/v1/predict", bytes.NewReader([]byte(p.body)))
				req.Header.Set("Content-Type", p.contentType)
				if (g+k)%2 == 0 {
					req.ContentLength = -1
				}
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, req)
				if rr.Header().Get("X-Cache-Status") == "hit" {
					hits.Add(1)
				} else {
					misses.Add(1)
				}
				var got response
				if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &got) != nil {
					t.Errorf("status %d: %s", rr.Code, rr.Body)
					return
				}
				if got.Format != p.want.Format || got.Rung != rungCNN || !maps.Equal(got.Probs, p.want.Probs) {
					t.Errorf("%s body answered %s %v (rung %s), offline %s %v", p.contentType, got.Format, got.Probs, got.Rung, p.want.Format, p.want.Probs)
				}
			}
		}()
	}
	wg.Wait()
	if hits.Load() == 0 || misses.Load() == 0 {
		t.Errorf("%d hits and %d misses: they did not interleave", hits.Load(), misses.Load())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if card := s.ShadowScorecard(); card.Samples == 0 || card.Errors != 0 {
		t.Errorf("shadow scorecard %+v", card)
	}
	entries := readFeedbackDir(t, dir)
	if len(entries) == 0 {
		t.Fatal("no feedback entries")
	}
	for _, e := range entries {
		if !e.HasPattern() {
			t.Fatalf("entry %x carries no pattern", e.Fingerprint)
		}
		m, err := sparse.UnitCOO(e.Stats.Rows, e.Stats.Cols, e.PatRows, e.PatCols)
		if err != nil {
			t.Fatalf("entry %x: %v", e.Fingerprint, err)
		}
		if fp := sparse.Fingerprint(m); fp != e.Fingerprint {
			t.Fatalf("entry %x logged a pattern that fingerprints to %x", e.Fingerprint, fp)
		}
	}
}
