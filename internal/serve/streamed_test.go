package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// equivalentBodies renders one matrix four ways: canonical row-major
// (the streamed path), the same triplets shuffled, one value split over
// a repeated position, and an explicit zero at a position the matrix
// does not store. All four denote the same canonical COO.
func equivalentBodies() (canonical, shuffled, split, zero []byte) {
	var req predictRequest
	json.Unmarshal(matrixJSON(24, 2), &req)
	marshal := func(entries [][3]float64) []byte {
		b, _ := json.Marshal(predictRequest{Rows: req.Rows, Cols: req.Cols, Entries: entries})
		return b
	}
	canonical = marshal(req.Entries)

	n := len(req.Entries)
	perm := make([][3]float64, n)
	for i, e := range req.Entries {
		perm[(i*7+3)%n] = e // 7 and n=114 are coprime: a permutation
	}
	shuffled = marshal(perm)

	// Each of these two is in row-major order but for the one triplet
	// that takes it off the streamed path.
	e := req.Entries[5]
	dup := append(append(append([][3]float64(nil), req.Entries[:5]...), [3]float64{e[0], e[1], 0.25}, [3]float64{e[0], e[1], 0.75}), req.Entries[6:]...)
	split = marshal(dup)

	withZero := append(append(append([][3]float64(nil), req.Entries[:3]...), [3]float64{0, 23, 0}), req.Entries[3:]...)
	zero = marshal(withZero)
	return
}

// TestEquivalentBodiesOneAnswer is the equivalence property of the
// request path: however a matrix is spelled — and so whichever of the
// streamed and built paths reads it — the answer is the one the
// canonical body gets, cached or not, with feedback capture (which
// wants the pattern even on a hit) or without; and with the cache on, the
// other spellings hit the entry the canonical body filled.
func TestEquivalentBodiesOneAnswer(t *testing.T) {
	canonical, shuffled, split, zero := equivalentBodies()
	bodies := map[string][]byte{"shuffled": shuffled, "split duplicate": split, "explicit zero": zero}
	for name, body := range bodies {
		a, _ := DecodeMatrix(context.Background(), canonical, "", sparse.DefaultLimits())
		b, err := DecodeMatrix(context.Background(), body, "", sparse.DefaultLimits())
		if err != nil || !a.Equal(b) {
			t.Fatalf("%s body does not denote the canonical matrix (err %v)", name, err)
		}
	}

	post := func(ts *httptest.Server, body []byte) (response, string) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		var r response
		if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &r) != nil {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		return r, resp.Header.Get("X-Cache-Status")
	}

	var first *response
	for _, cached := range []bool{true, false} {
		for _, feedback := range []bool{false, true} {
			s, _ := newTestServer(t, func(c *Config) {
				if !cached {
					c.CacheSize = 0
				}
				if feedback {
					c.FeedbackDir = t.TempDir()
				}
			})
			ts := httptest.NewServer(s.Handler())
			want, status := post(ts, canonical)
			if status != "miss" || want.Cached {
				t.Fatalf("cached=%v feedback=%v: first request was a %q", cached, feedback, status)
			}
			if first == nil {
				first = &want
			} else if want.Format != first.Format || want.Rung != first.Rung || want.ModelGeneration != first.ModelGeneration {
				t.Errorf("cached=%v feedback=%v: canonical body answered %s/%s/gen %d, elsewhere %s/%s/gen %d", cached, feedback,
					want.Format, want.Rung, want.ModelGeneration, first.Format, first.Rung, first.ModelGeneration)
			}
			wantStatus := "miss"
			if cached {
				wantStatus = "hit"
			}
			for name, body := range map[string][]byte{"canonical again": canonical, "shuffled": shuffled, "split duplicate": split, "explicit zero": zero} {
				got, status := post(ts, body)
				if got.Format != want.Format || got.Rung != want.Rung || got.ModelGeneration != want.ModelGeneration {
					t.Errorf("cached=%v feedback=%v: %s body answered %s/%s/gen %d, canonical %s/%s/gen %d", cached, feedback, name,
						got.Format, got.Rung, got.ModelGeneration, want.Format, want.Rung, want.ModelGeneration)
				}
				if status != wantStatus || got.Cached != cached {
					t.Errorf("cached=%v feedback=%v: %s body was a %q (cached=%v), want %q", cached, feedback, name, status, got.Cached, wantStatus)
				}
			}
			// Two of the five bodies were canonical.
			page := scrapeMetrics(t, ts)
			for path, want := range map[string]string{"streamed": "2", "built": "3"} {
				if series := fmt.Sprintf(`serve_parse_total{path=%q} %s`, path, want); !strings.Contains(page, series) {
					t.Errorf("cached=%v feedback=%v: /metrics lacks %s", cached, feedback, series)
				}
			}
			ts.Close()
		}
	}
}

// TestServedRequestConvertsNoValue: no request has a span for turning
// the body into a matrix, because none does — a canonical body's miss
// goes from the cache straight to the queue, its hit under feedback
// capture is a hit — and the Scanned a request was served from still
// holds its values as text afterwards.
func TestServedRequestConvertsNoValue(t *testing.T) {
	canonical, shuffled, _, _ := equivalentBodies()
	spans := func(ts *httptest.Server, body []byte) string {
		_, r := traceResponse(t, ts, body)
		var names []string
		for _, sp := range r.Trace {
			names = append(names, sp.Name)
		}
		return strings.Join(names, " ")
	}
	s, _ := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if got := spans(ts, canonical); !strings.HasPrefix(got, "parse cache queue") {
		t.Errorf("streamed miss: spans %q, want parse cache queue …", got)
	}
	if got := spans(ts, canonical); got != "parse cache" {
		t.Errorf("streamed hit: spans %q, want parse cache", got)
	}
	if got := spans(ts, shuffled); got != "parse cache" {
		t.Errorf("built hit: spans %q, want parse cache", got)
	}

	fb, _ := newTestServer(t, func(c *Config) { c.FeedbackDir = t.TempDir() })
	fts := httptest.NewServer(fb.Handler())
	defer fts.Close()
	if got := spans(fts, canonical); !strings.HasPrefix(got, "parse cache queue") {
		t.Errorf("streamed miss with feedback capture: spans %q, want parse cache queue …", got)
	}
	if got := spans(fts, canonical); got != "parse cache" {
		t.Errorf("streamed hit with feedback capture: spans %q, want parse cache", got)
	}

	// The same two requests against predictOne itself, which is handed
	// the Scanned: a miss, then a hit that is logged with its pattern.
	body := matrixJSON(30, 1)
	for _, want := range []string{"miss", "hit"} {
		sc, err := ScanMatrix(context.Background(), body, "application/json", sparse.DefaultLimits())
		if err != nil {
			t.Fatal(err)
		}
		var meta predictMeta
		if _, err := fb.predictOne(context.Background(), sc, &meta); err != nil {
			t.Fatal(err)
		}
		if meta.cacheStatus != want {
			t.Fatalf("request was a %q, want %q", meta.cacheStatus, want)
		}
		if !sc.Streamed() {
			t.Errorf("a %s under feedback capture converted the body's values", want)
		}
	}
}

// TestAnswerIsAFunctionOfThePattern: two canonical bodies with the same
// positions and different values — a negative, one near the bottom of
// the float64 range, a 40-digit mantissa — are one matrix to the
// server: with the cache off both get the same format and
// probabilities, with it on the second is a hit. The values are still
// held to the grammar: one that overflows is a 400 from the scan.
func TestAnswerIsAFunctionOfThePattern(t *testing.T) {
	ones := patternBody("1", "1", "1")
	others := patternBody("-0.5", "1e-300", "0."+strings.Repeat("1234567890", 4)[:38])
	for name, b := range map[string][]byte{"ones": ones, "others": others} {
		sc, err := ScanMatrix(context.Background(), b, "application/json", sparse.DefaultLimits())
		if err != nil || !sc.Streamed() {
			t.Fatalf("%s body is not streamed (err %v)", name, err)
		}
	}

	for _, cached := range []bool{false, true} {
		s, _ := newTestServer(t, func(c *Config) {
			if !cached {
				c.CacheSize = 0
			}
		})
		ts := httptest.NewServer(s.Handler())
		_, want, _ := postPredict(t, ts, ones, "application/json")
		_, got, _ := postPredict(t, ts, others, "application/json")
		if got.Format != want.Format || got.Rung != rungCNN || !maps.Equal(got.Probs, want.Probs) || len(got.Probs) == 0 {
			t.Errorf("cached=%v: same positions, other values answered %s %v, want %s %v", cached, got.Format, got.Probs, want.Format, want.Probs)
		}
		if got.Cached != cached {
			t.Errorf("cached=%v: the second body's cached = %v", cached, got.Cached)
		}
		code, _, bad := postPredict(t, ts, patternBody("1", "1e400", "1"), "application/json")
		if code != http.StatusBadRequest || !strings.Contains(bad.Error, "does not fit a float64") {
			t.Errorf("cached=%v: an overflowing value answered %d %q, want 400 from the scan", cached, code, bad.Error)
		}
		ts.Close()
	}
}

// TestSpacingDoesNotChangeTheScan: one body written compact, which the
// straight-line pass reads triplet by triplet, and indented, which the
// token path reads, is streamed both ways, to one fingerprint and one
// pattern.
func TestSpacingDoesNotChangeTheScan(t *testing.T) {
	compact, _ := benchBodies(t)
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, compact, "", "  "); err != nil {
		t.Fatal(err)
	}
	var scans [2]*Scanned
	for i, body := range [][]byte{compact, spaced.Bytes()} {
		sc, err := ScanMatrix(context.Background(), body, "application/json", sparse.DefaultLimits())
		if err != nil || !sc.Streamed() {
			t.Fatalf("body %d is not streamed (err %v)", i, err)
		}
		scans[i] = sc
	}
	if a, b := scans[0].Fingerprint(), scans[1].Fingerprint(); a != b {
		t.Fatalf("compact body fingerprints to %x, spaced %x", a, b)
	}
	a, _ := scans[0].Pattern()
	b, _ := scans[1].Pattern()
	if !slices.Equal(a.Rows, b.Rows) || !slices.Equal(a.Cols, b.Cols) || a.NNZ() != 2088 {
		t.Fatalf("compact and spaced bodies scan to different patterns (%d and %d positions)", a.NNZ(), b.NNZ())
	}
}

// patternBody renders one fixed 12×12 pattern (the diagonal and a
// superdiagonal) canonically, its values cycling through vals.
func patternBody(vals ...string) []byte {
	var b strings.Builder
	b.WriteString(`{"rows":12,"cols":12,"entries":[`)
	for i, k := 0, 0; i < 12; i++ {
		for _, j := range []int{i, i + 3} {
			if j >= 12 {
				continue
			}
			if k > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "[%d,%d,%s]", i, j, vals[k%len(vals)])
			k++
		}
	}
	b.WriteString("]}")
	return []byte(b.String())
}

// TestDecodeJSONRefusesWhatInt32CannotHold: COO indices are int32, so a
// dimension or coordinate of 2^31 is a 413 whatever the limits say —
// with none it used to be truncated into the matrix — and 2^31-1 is an
// ordinary number: accepted as a dimension, and as a coordinate refused
// only for lying outside a matrix that can be at most that wide.
func TestDecodeJSONRefusesWhatInt32CannotHold(t *testing.T) {
	const top = math.MaxInt32 // 2^31-1
	body := func(rows, cols, r, c int) []byte {
		return []byte(fmt.Sprintf(`{"rows":%d,"cols":%d,"entries":[[0,0,1],[%d,%d,2]]}`, rows, cols, r, c))
	}
	for _, lim := range []sparse.Limits{{}, {MaxRows: 1 << 40, MaxCols: 1 << 40}} {
		for name, b := range map[string][]byte{
			"rows 2^31":             body(top+1, 4, 1, 1),
			"cols 2^31":             body(4, top+1, 1, 1),
			"row index 2^31":        body(top, 4, top+1, 1),
			"col index 2^31":        body(4, top, 1, top+1),
			"row index 2^31, early": []byte(fmt.Sprintf(`{"entries":[[%d,0,1]],"rows":4,"cols":4}`, top+1)),
		} {
			_, err := DecodeMatrix(context.Background(), b, "", lim)
			if !errors.Is(err, sparse.ErrTooLarge) || IngestStatus(err) != http.StatusRequestEntityTooLarge {
				t.Errorf("%s with limits %+v: err = %v, want ErrTooLarge", name, lim, err)
			}
		}
		m, err := DecodeMatrix(context.Background(), body(top, top, top-1, top-1), "", lim)
		if err != nil {
			t.Fatalf("a %d-square matrix with limits %+v: %v", top, lim, err)
		}
		if r, c := m.Dims(); r != top || c != top || m.NNZ() != 2 || m.Rows[1] != top-1 || m.Cols[1] != top-1 {
			t.Errorf("a %d-square matrix decoded as %dx%d with last entry (%d,%d)", top, r, c, m.Rows[1], m.Cols[1])
		}
		_, err = DecodeMatrix(context.Background(), body(top, top, top, 1), "", lim)
		if err == nil || errors.Is(err, sparse.ErrTooLarge) || IngestStatus(err) != http.StatusBadRequest {
			t.Errorf("row index 2^31-1 in a matrix of 2^31-1 rows: err = %v, want out of range (400)", err)
		}
	}
}
