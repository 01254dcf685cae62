package serve

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestGracefulShutdownDrains covers the satellite requirements in one
// scenario: an in-flight request (held in the worker by a test hook)
// completes during Shutdown, a request arriving after draining begins
// gets 503, Shutdown returns within the deadline, and the final
// metrics snapshot is flushed to the log.
func TestGracefulShutdownDrains(t *testing.T) {
	var log lockedBuffer
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })

	s, _ := newTestServer(t, func(c *Config) { c.Log = &log })
	s.testHookPreJob = func() { <-hold }
	ts := httptest.NewServer(s.Handler())
	// Release the hook before closing the test server: Close waits for
	// outstanding requests, which wait on the hook.
	defer func() { release(); ts.Close() }()

	// In-flight request: parked in the worker pool on the hook.
	inflightDone := make(chan response, 1)
	go func() {
		_, r, _, err := postPredictErr(ts, matrixJSON(16, 1), "application/json")
		if err != nil {
			t.Error(err)
		}
		inflightDone <- r
	}()
	waitFor(t, "request to reach the worker", func() bool { return s.met.inflight.Load() == 1 })

	// Begin draining.
	shutdownErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutdownErr <- s.Shutdown(ctx) }()
	waitFor(t, "draining to begin", func() bool { return s.draining.Load() })

	// New request during the drain: immediate 503, and readiness is
	// gone.
	code, _, bad := postPredict(t, ts, matrixJSON(16, 1), "application/json")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503", code)
	}
	if !strings.Contains(bad.Error, "draining") {
		t.Fatalf("error %q", bad.Error)
	}
	if resp, err := ts.Client().Get(ts.URL + "/readyz"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
		}
	}

	// The in-flight request must still be waiting, not aborted.
	select {
	case r := <-inflightDone:
		t.Fatalf("in-flight request answered before release: %+v", r)
	case <-time.After(50 * time.Millisecond):
	}

	// Release the worker: the in-flight request drains successfully and
	// Shutdown completes cleanly.
	release()
	select {
	case r := <-inflightDone:
		if r.Format == "" || r.FellBack {
			t.Fatalf("drained request got a degraded answer: %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown never returned")
	}

	out := log.String()
	if !strings.Contains(out, "final metrics") || !strings.Contains(out, "serve_requests_total") {
		t.Fatalf("final metrics flush missing from log:\n%s", out)
	}
	if !strings.Contains(out, `endpoint="predict"`) {
		t.Fatalf("flushed metrics lost request counts:\n%s", out)
	}
}

// TestShutdownDeadline: when in-flight work cannot drain in time,
// Shutdown must give up at the deadline and report it rather than hang.
func TestShutdownDeadline(t *testing.T) {
	hold := make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })

	dir := t.TempDir()
	model := filepath.Join(dir, "model.gob")
	saveTestModel(t, model, 1)
	s, err := New(Config{ModelPath: model})
	if err != nil {
		t.Fatal(err)
	}
	s.testHookPreJob = func() { <-hold }
	ts := httptest.NewServer(s.Handler())
	defer func() { release(); ts.Close() }()

	go postPredictErr(ts, matrixJSON(12, 1), "application/json")
	waitFor(t, "request to reach the worker", func() bool { return s.met.inflight.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.Shutdown(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("shutdown took %v despite 50ms deadline", elapsed)
	}
}

// TestServeLifecycle exercises the real-listener path end to end:
// ListenAndServe on an ephemeral port, live traffic, then Shutdown
// closing the listener and returning ErrServerClosed from Serve.
func TestServeLifecycle(t *testing.T) {
	s, _ := newTestServer(t, nil)
	addrCh := make(chan net.Addr, 1)
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- s.ListenAndServe("127.0.0.1:0", func(a net.Addr) { addrCh <- a })
	}()
	var addr net.Addr
	select {
	case addr = <-addrCh:
	case err := <-serveErr:
		t.Fatalf("serve failed before listening: %v", err)
	}
	base := "http://" + addr.String()

	resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(matrixJSON(16, 1)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-serveErr:
		if err != http.ErrServerClosed {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve never returned after Shutdown")
	}
	// The port is actually closed.
	if _, err := net.DialTimeout("tcp", addr.String(), 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// waitFor polls cond with a deadline.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// lockedBuffer is a goroutine-safe bytes.Buffer for capturing server
// logs written from multiple goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}
