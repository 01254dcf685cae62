package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestReadyzReportsRung pins the degraded-readiness contract the
// router's prober parses: 200 rung=cnn healthy, 200 rung=dtree while
// the breaker is open but the tree stands, 503 when the ladder is down
// to the CSR floor.
func TestReadyzReportsRung(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.BreakerThreshold = 1 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	readyz := func() (int, string) {
		res, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		data, _ := io.ReadAll(res.Body)
		return res.StatusCode, string(data)
	}

	if code, body := readyz(); code != http.StatusOK || body != "ready rung=cnn\n" {
		t.Fatalf("healthy: %d %q", code, body)
	}
	s.breaker.Failure() // threshold 1: breaker opens, tree rung takes over
	if code, body := readyz(); code != http.StatusOK || body != "ready rung=dtree\n" {
		t.Fatalf("degraded: %d %q, want 200 rung=dtree", code, body)
	}
	s.dtree = nil // hard-down: no middle rung left
	if code, body := readyz(); code != http.StatusServiceUnavailable || body != "degraded rung=csr\n" {
		t.Fatalf("hard-down: %d %q, want 503 rung=csr", code, body)
	}
}
