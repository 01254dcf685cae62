package serve

import (
	"bytes"
	"context"
	"encoding/gob"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/nn"
)

func TestReloadSwapsGenerationAndResetsCache(t *testing.T) {
	s, model := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := matrixJSON(18, 2)
	if _, r, _ := postPredict(t, ts, body, "application/json"); r.ModelGeneration != 1 {
		t.Fatalf("generation %d, want 1", r.ModelGeneration)
	}
	if _, r, _ := postPredict(t, ts, body, "application/json"); !r.Cached {
		t.Fatal("expected a cache hit before reload")
	}

	saveTestModel(t, model, 2) // different seed: genuinely new weights
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 2 {
		t.Fatalf("generation %d, want 2", s.Generation())
	}

	// The cache must not serve generation-1 answers under generation 2.
	code, r, _ := postPredict(t, ts, body, "application/json")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if r.Cached {
		t.Fatal("stale cache entry survived the reload")
	}
	if r.ModelGeneration != 2 {
		t.Fatalf("answer from generation %d, want 2", r.ModelGeneration)
	}
}

func TestReloadRejectsCorruptModel(t *testing.T) {
	s, model := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Each rejection must come from the check the file was built to
	// reach: a lying model that stopped earlier (say, because its wire
	// layout drifted from the model blob's) would test something else.
	for i, c := range []struct {
		write   func() error
		wantErr string
	}{
		{func() error { return os.WriteFile(model, []byte("definitely not a model envelope"), 0o644) }, "bad magic"},
		{func() error { return writeLyingModel(model) }, "bad dense spec"},
	} {
		if err := c.write(); err != nil {
			t.Fatal(err)
		}
		err := s.Reload()
		if err == nil {
			t.Fatalf("corrupt model %d accepted", i)
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("corrupt model %d rejected with %q, want an error mentioning %q", i, err, c.wantErr)
		}
		if s.Generation() != 1 {
			t.Fatalf("generation moved to %d on a rejected reload", s.Generation())
		}
		// Old model keeps serving.
		code, r, _ := postPredict(t, ts, matrixJSON(10, 1), "application/json")
		if code != http.StatusOK || r.FellBack {
			t.Fatalf("old model stopped serving: code %d fellback %v", code, r.FellBack)
		}
		page := scrapeMetrics(t, ts)
		if fails := metricValue(t, page, "serve_model_reload_failures_total"); fails != float64(i+1) {
			t.Fatalf("reload failures %g, want %d", fails, i+1)
		}
	}
}

// writeLyingModel publishes a CRC-valid selector artifact whose model
// blob declares a dense layer of 2^28 weights and carries 15 floats.
// The field names are the wire format's (gob matches by name), so it
// decodes as the real thing up to nn.Load's size checks.
func writeLyingModel(path string) error {
	type wireModel struct {
		Head    []nn.LayerSpec
		Weights [][]float64
		Shapes  [][]int
		Frozen  []bool
	}
	var mbuf, sbuf bytes.Buffer
	if err := gob.NewEncoder(&mbuf).Encode(wireModel{
		Head:    []nn.LayerSpec{{Type: "dense", Ints: []int{1 << 14, 1 << 14}}},
		Weights: [][]float64{make([]float64, 12), make([]float64, 3)},
		Shapes:  [][]int{{3, 4}, {3}},
		Frozen:  []bool{false, false},
	}); err != nil {
		return err
	}
	if err := gob.NewEncoder(&sbuf).Encode(struct{ Model []byte }{mbuf.Bytes()}); err != nil {
		return err
	}
	return durable.WriteEnvelopeFile(path, durable.EnvelopeSelector, sbuf.Bytes())
}

func TestWatchModelPicksUpOverwrite(t *testing.T) {
	s, model := newTestServer(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.WatchModel(ctx, 5*time.Millisecond)

	saveTestModel(t, model, 3)
	deadline := time.Now().Add(5 * time.Second)
	for s.Generation() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never picked up the overwritten model")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHotReloadUnderLoad is the acceptance scenario: the model file is
// overwritten repeatedly while 16 clients hammer /v1/predict; every
// request must succeed (the swap is atomic and validated) and the
// generation must advance.
func TestHotReloadUnderLoad(t *testing.T) {
	s, model := newTestServer(t, func(c *Config) { c.CacheSize = 16 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ts.Client().Transport.(*http.Transport).MaxIdleConnsPerHost = 32

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.WatchModel(ctx, time.Millisecond)

	stop := make(chan struct{})
	var failures atomic.Int64
	var requests atomic.Int64
	var wg sync.WaitGroup
	bodies := [][]byte{matrixJSON(14, 1), matrixJSON(20, 2), matrixJSON(26, 3)}
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				code, resp, bad := postPredict(t, ts, bodies[(c+i)%len(bodies)], "application/json")
				requests.Add(1)
				if code != http.StatusOK || resp.FellBack {
					t.Errorf("client %d: code %d fellback=%v err=%q reason=%q", c, code, resp.FellBack, bad.Error, resp.Reason)
					failures.Add(1)
					return
				}
			}
		}(c)
	}

	// Overwrite the model (atomic envelope write) several times
	// mid-flight.
	for seed := int64(2); seed <= 5; seed++ {
		saveTestModel(t, model, seed)
		time.Sleep(30 * time.Millisecond)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Generation() < 2 && time.Now().After(deadline) == false {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if failures.Load() > 0 {
		t.Fatalf("%d/%d requests failed during hot reload", failures.Load(), requests.Load())
	}
	if s.Generation() < 2 {
		t.Fatalf("generation still %d; reload never happened under load", s.Generation())
	}
	if requests.Load() == 0 {
		t.Fatal("no requests issued")
	}
}

// TestReloadConcurrentCallers: SIGHUP and the watcher may fire
// together; generation must advance coherently and the server must
// stay consistent.
func TestReloadConcurrentCallers(t *testing.T) {
	s, model := newTestServer(t, nil)
	saveTestModel(t, model, 9)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Reload(); err != nil {
				t.Errorf("reload: %v", err)
			}
		}()
	}
	wg.Wait()
	if g := s.Generation(); g != 9 { // 1 initial + 8 reloads
		t.Fatalf("generation %d, want 9", g)
	}
}
