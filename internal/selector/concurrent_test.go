package selector

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/represent"
	"repro/internal/sparse"
)

// hammerMatrices builds a few structurally different matrices so
// concurrent predictions exercise varied input shapes.
func hammerMatrices(t testing.TB) []*sparse.COO {
	t.Helper()
	var ms []*sparse.COO
	specs := []struct{ n, band int }{{16, 1}, {40, 3}, {64, 9}, {25, 2}}
	for _, sp := range specs {
		var es []sparse.Entry
		for i := 0; i < sp.n; i++ {
			for d := -sp.band; d <= sp.band; d++ {
				if j := i + d; j >= 0 && j < sp.n {
					es = append(es, sparse.Entry{Row: i, Col: j, Val: float64(d + 1)})
				}
			}
		}
		ms = append(ms, sparse.MustCOO(sp.n, sp.n, es))
	}
	return ms
}

// TestPredictConcurrent hammers one shared selector from many
// goroutines. Predict's contract is that inference is safe for
// concurrent callers on a single model (the serving tier relies on
// it); run under -race this test catches any layer that mutates shared
// state on the inference path (Dropout's lastScale reset was one).
func TestPredictConcurrent(t *testing.T) {
	cfg := DefaultConfig(represent.KindHistogram, sparse.CPUFormats())
	cfg.Represent.Size = 16
	cfg.Represent.Bins = 8
	if cfg.DropoutRate <= 0 {
		t.Fatal("test needs a dropout layer to cover its inference path")
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms := hammerMatrices(t)

	// One serial pass fixes the expected outputs; inference is
	// deterministic, so concurrent calls must reproduce them exactly.
	want := make([]sparse.Format, len(ms))
	for i, m := range ms {
		f, _, err := s.Predict(m)
		if err != nil {
			t.Fatalf("serial predict %d: %v", i, err)
		}
		want[i] = f
	}

	const goroutines, iters = 32, 25
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(ms)
				f, probs, err := s.Predict(ms[i])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %v", g, it, err)
					return
				}
				if f != want[i] {
					errs <- fmt.Errorf("goroutine %d iter %d: got %v, want %v", g, it, f, want[i])
					return
				}
				if len(probs) != len(cfg.Formats) {
					errs <- fmt.Errorf("goroutine %d iter %d: %d probs", g, it, len(probs))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPredictWithFallbackConcurrent covers the serving entry point,
// mixing good matrices with inputs that force the fallback path.
func TestPredictWithFallbackConcurrent(t *testing.T) {
	cfg := DefaultConfig(represent.KindHistogram, sparse.CPUFormats())
	cfg.Represent.Size = 16
	cfg.Represent.Bins = 8
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms := hammerMatrices(t)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				if it%5 == 4 { // degenerate input: must fall back, not race or crash
					p := s.PredictWithFallback(nil)
					if !p.FellBack || p.Format != FallbackFormat {
						t.Errorf("goroutine %d: bad fallback %+v", g, p)
						return
					}
					continue
				}
				p := s.PredictWithFallback(ms[(g+it)%len(ms)])
				if p.FellBack {
					t.Errorf("goroutine %d: unexpected fallback: %v", g, p.Reason)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEvaluateJudgesWhatIsServed: Evaluate's confusion matrix is the one
// built from PredictPattern record by record, on a trained selector, at
// one worker and at four, while Predict answers from the same engine on
// other goroutines. Under -race, a buffer the judge and the server
// share is a reported race.
func TestEvaluateJudgesWhatIsServed(t *testing.T) {
	d := cpuDataset(t, 60)
	s, err := New(fastConfig(represent.KindHistogram))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train(d, nil); err != nil {
		t.Fatal(err)
	}
	want := NewMetrics(s.Cfg.Formats)
	for i := range d.Records {
		r := &d.Records[i]
		f, _, err := s.PredictPattern(&r.Matrix().Pattern)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		truth, err := s.classOf(r.Label)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := s.classOf(f)
		if err != nil {
			t.Fatal(err)
		}
		want.Add(truth, pred)
	}
	ms := hammerMatrices(t)
	served := make([]sparse.Format, len(ms))
	for i, m := range ms {
		if served[i], _, err = s.Predict(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		s.Cfg.Workers = workers
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if f, _, err := s.Predict(ms[i%len(ms)]); err != nil || f != served[i%len(ms)] {
						t.Errorf("workers=%d: concurrent Predict %v (%v), want %v", workers, f, err, served[i%len(ms)])
						return
					}
				}
			}()
		}
		got, err := s.Evaluate(d, nil)
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Confusion, want.Confusion) {
			t.Fatalf("workers=%d: Evaluate confusion %v, PredictPattern record by record %v", workers, got.Confusion, want.Confusion)
		}
	}
}
