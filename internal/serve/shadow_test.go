package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/feedback"
	"repro/internal/obs"
)

// postAdmin drives one admin endpoint and decodes the scorecard reply.
func postAdmin(t *testing.T, ts *httptest.Server, method, path string, body []byte) (int, feedback.ShadowScorecard) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var card feedback.ShadowScorecard
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&card); err != nil {
			t.Fatalf("bad scorecard body: %v", err)
		}
	}
	return resp.StatusCode, card
}

// TestShadowLoadAndScorecard loads a valid candidate as shadow through
// the admin surface and checks the scorecard reflects it.
func TestShadowLoadAndScorecard(t *testing.T) {
	s, _ := newTestServer(t, nil)
	admin := httptest.NewServer(s.AdminHandler())
	defer admin.Close()

	cand := filepath.Join(t.TempDir(), "candidate.gob")
	saveTestModel(t, cand, 7)

	code, card := postAdmin(t, admin, "POST", "/shadow/load", []byte(`{"path":"`+cand+`"}`))
	if code != http.StatusOK {
		t.Fatalf("shadow load status %d", code)
	}
	if !card.Loaded || card.Path != cand {
		t.Fatalf("scorecard after load: %+v", card)
	}

	code, card = postAdmin(t, admin, "GET", "/shadow/scorecard", nil)
	if code != http.StatusOK || !card.Loaded {
		t.Fatalf("scorecard fetch: status %d card %+v", code, card)
	}

	code, card = postAdmin(t, admin, "POST", "/shadow/clear", nil)
	if code != http.StatusOK || card.Loaded {
		t.Fatalf("after clear: status %d card %+v", code, card)
	}
}

// TestShadowLoadRejectsCorrupt feeds the shadow loader a corrupted
// artifact: it must be rejected with 422, leave no shadow installed,
// and leave the live model serving.
func TestShadowLoadRejectsCorrupt(t *testing.T) {
	s, _ := newTestServer(t, nil)
	admin := httptest.NewServer(s.AdminHandler())
	defer admin.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cand := filepath.Join(t.TempDir(), "candidate.gob")
	saveTestModel(t, cand, 7)
	data, err := os.ReadFile(cand)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(cand, data, 0o644); err != nil {
		t.Fatal(err)
	}

	code, _ := postAdmin(t, admin, "POST", "/shadow/load", []byte(`{"path":"`+cand+`"}`))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt shadow load: want 422, got %d", code)
	}
	if s.shadow.Load() != nil {
		t.Fatal("corrupt candidate was installed as shadow")
	}
	if got, _, _ := postPredict(t, ts, matrixJSON(16, 2), "application/json"); got != http.StatusOK {
		t.Fatalf("live predict after rejected shadow: status %d", got)
	}
	var buf bytes.Buffer
	if _, err := s.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	vals, err := obs.ParseMetrics(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if vals["serve_shadow_rejects_total"] < 1 {
		t.Fatalf("serve_shadow_rejects_total = %v, want >= 1", vals["serve_shadow_rejects_total"])
	}
}

// TestShadowMirrorsWithoutAffectingResponses samples every request
// through the shadow and checks (a) the scorecard fills, (b) every live
// response is still a healthy 200 with a valid format.
func TestShadowMirrorsWithoutAffectingResponses(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) {
		c.ShadowSampleN = 1
		c.CacheSize = 0 // every request must reach the batch path
	})
	admin := httptest.NewServer(s.AdminHandler())
	defer admin.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cand := filepath.Join(t.TempDir(), "candidate.gob")
	saveTestModel(t, cand, 7)
	if code, _ := postAdmin(t, admin, "POST", "/shadow/load", []byte(`{"path":"`+cand+`"}`)); code != http.StatusOK {
		t.Fatalf("shadow load status %d", code)
	}

	const n = 12
	for i := 0; i < n; i++ {
		code, ok, bad := postPredict(t, ts, matrixJSON(16+i, 2), "application/json")
		if code != http.StatusOK {
			t.Fatalf("predict %d: status %d (%+v)", i, code, bad)
		}
		validFormat(t, ok.Format)
	}

	// The mirror runs on the batch worker after responses are answered;
	// give it a moment to drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		card := s.ShadowScorecard()
		if card.Samples >= n {
			if card.Errors != 0 {
				t.Fatalf("shadow errors: %+v", card)
			}
			if card.Agree+card.Disagree == 0 {
				t.Fatalf("no mirrored predictions judged: %+v", card)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shadow scorecard never filled: %+v", card)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFeedbackCapture posts predictions with and without a
// client-reported SpMV timing and checks the feedback log captured
// them, including cache-hit replays and the timing passthrough.
func TestFeedbackCapture(t *testing.T) {
	dir := t.TempDir()
	s, _ := newTestServer(t, func(c *Config) { c.FeedbackDir = dir })
	ts := httptest.NewServer(s.Handler())

	// Same matrix twice: first a miss (batch path), then a cache hit.
	body := matrixJSON(16, 2)
	for i := 0; i < 2; i++ {
		if code, _, _ := postPredict(t, ts, body, "application/json"); code != http.StatusOK {
			t.Fatalf("predict: status %d", code)
		}
	}
	// One request carrying a client-reported timing.
	var req predictRequest
	if err := json.Unmarshal(matrixJSON(20, 2), &req); err != nil {
		t.Fatal(err)
	}
	req.SpmvSeconds = 0.125
	timed, _ := json.Marshal(req)
	if code, _, _ := postPredict(t, ts, timed, "application/json"); code != http.StatusOK {
		t.Fatalf("timed predict failed")
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx) // flushes and closes the feedback log

	entries := readFeedbackDir(t, dir)
	if len(entries) != 3 {
		t.Fatalf("feedback entries = %d, want 3", len(entries))
	}
	var hits, clientTimed int
	for _, e := range entries {
		if e.Format == "" || e.ModelGen == 0 {
			t.Fatalf("incomplete entry: %+v", e)
		}
		if e.CacheHit {
			hits++
		}
		if e.ClientSec > 0 {
			clientTimed++
			if e.ClientSec != 0.125 {
				t.Fatalf("client timing %v, want 0.125", e.ClientSec)
			}
		} else if e.EstSec <= 0 {
			t.Fatalf("entry missing estimated timing: %+v", e)
		}
	}
	if hits != 1 {
		t.Fatalf("cache-hit entries = %d, want 1", hits)
	}
	if clientTimed != 1 {
		t.Fatalf("client-timed entries = %d, want 1", clientTimed)
	}
}

// readFeedbackDir parses every feedback entry in dir — sealed segments
// plus the active file.
func readFeedbackDir(t *testing.T, dir string) []feedback.Entry {
	t.Helper()
	paths, err := feedback.SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths, filepath.Join(dir, "feedback.jsonl"))
	var out []feedback.Entry
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			var e feedback.Entry
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatalf("bad feedback line %q: %v", line, err)
			}
			out = append(out, e)
		}
		f.Close()
	}
	return out
}
