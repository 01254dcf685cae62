package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/selector"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// answer is the part of a predict response the equivalence property is
// about: what was chosen, and whether the response owns up to having
// been degraded.
type answer struct {
	Format   string             `json:"format"`
	Probs    map[string]float64 `json:"probs"`
	Cached   bool               `json:"cached"`
	Rung     string             `json:"rung"`
	FellBack bool               `json:"fell_back"`
}

// realReplica is a serve.Server on a real listener. shedNext makes its
// next predict answer a bare 429, which is how the test gets the real
// router to retry a request onto the other replica.
type realReplica struct {
	ts       *httptest.Server
	shedNext atomic.Bool
}

func newRealReplica(t *testing.T, model string) *realReplica {
	t.Helper()
	srv, err := serve.New(serve.Config{ModelPath: model, Workers: 2, CacheSize: 256, BreakerThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := &realReplica{}
	inner := srv.Handler()
	r.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/v1/predict" && r.shedNext.CompareAndSwap(true, false) {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		inner.ServeHTTP(w, req)
	}))
	t.Cleanup(func() {
		r.ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return r
}

// post sends one predict body to base and decodes the 200 answer.
func post(t *testing.T, base string, body []byte) (*http.Response, answer) {
	t.Helper()
	res, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	data, _ := io.ReadAll(res.Body)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("%s: code %d body %s", base, res.StatusCode, data)
	}
	var a answer
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatalf("%s: bad body %q: %v", base, data, err)
	}
	return res, a
}

func predictJSON(m *sparse.COO) []byte {
	rows, cols := m.Dims()
	entries := make([][3]float64, 0, m.NNZ())
	for _, e := range m.Entries() {
		entries = append(entries, [3]float64{float64(e.Row), float64(e.Col), e.Val})
	}
	b, _ := json.Marshal(map[string]any{"rows": rows, "cols": cols, "entries": entries})
	return b
}

// TestAnswerEquivalence is the north star's correctness property: for
// one model and one matrix, every path a client can be answered on —
// a replica's miss, the same replica's hit, the router, a retry that
// lands on the non-owner — serves exactly what selector.Predict computes
// offline, and an answer that does not (breaker open) says so.
func TestAnswerEquivalence(t *testing.T) {
	res, err := core.Train(core.Options{Platform: "xeonlike", Count: 40, MaxN: 128, RepSize: 16, Epochs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	model := filepath.Join(t.TempDir(), "model.gob")
	if err := res.Selector.SaveFile(model); err != nil {
		t.Fatal(err)
	}
	offline, err := selector.LoadFile(model)
	if err != nil {
		t.Fatal(err)
	}

	const matrices = 32
	replicas := map[string]*realReplica{}
	var urls []string
	for i := 0; i < 2; i++ {
		r := newRealReplica(t, model)
		replicas[r.ts.URL] = r
		urls = append(urls, r.ts.URL)
	}
	rt, err := New(Config{
		Replicas:         urls,
		ProbeInterval:    25 * time.Millisecond,
		Backoff:          time.Millisecond,
		RetryBudgetBurst: matrices, // one retry per matrix below
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	specs := synthgen.SampleSpecs(matrices+8, 7, 128)
	for i, spec := range specs[:matrices] {
		m := synthgen.Build(spec)
		body := predictJSON(m)
		f, probs, err := offline.Predict(m)
		if err != nil {
			t.Fatalf("matrix %d: offline predict: %v", i, err)
		}
		want := answer{Format: f.String(), Probs: map[string]float64{}, Rung: "cnn"}
		for pf, p := range probs {
			want.Probs[pf.String()] = p
		}
		check := func(path string, got answer, cached bool) {
			t.Helper()
			want.Cached = cached
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("matrix %d, %s:\n got %+v\nwant %+v", i, path, got, want)
			}
		}

		owner := rt.Owner(sparse.Fingerprint(m))
		other := urls[0]
		if other == owner {
			other = urls[1]
		}
		_, got := post(t, owner, body)
		check("replica miss", got, false)
		_, got = post(t, owner, body)
		check("replica hit", got, true)
		hr, got := post(t, front.URL, body)
		check("via router", got, true)
		if by := hr.Header.Get("X-Served-By"); by != owner {
			t.Fatalf("matrix %d: router sent it to %s, the ring says %s", i, by, owner)
		}
		// The owner sheds once: the router's retry lands on the replica
		// that has never seen this matrix.
		replicas[owner].shedNext.Store(true)
		hr, got = post(t, front.URL, body)
		check("retried onto the non-owner", got, false)
		if by, n := hr.Header.Get("X-Served-By"), hr.Header.Get("X-Router-Attempts"); by != other || n != "2" {
			t.Fatalf("matrix %d: retry served by %s in %s attempts, want %s in 2", i, by, n, other)
		}
	}

	// Breakers forced open (threshold 1, every CNN inference panics):
	// whatever is served now is not the model's answer, and says so.
	t.Cleanup(faultinject.Reset)
	faultinject.Enable(faultinject.PointPredictPanic, faultinject.Fault{Panic: "equivalence test"})
	bases := append([]string{front.URL}, urls...)
	for i, spec := range specs[matrices:] {
		base := bases[i%len(bases)]
		_, got := post(t, base, predictJSON(synthgen.Build(spec)))
		if got.Rung == "cnn" || !got.FellBack || got.Cached {
			t.Fatalf("degraded matrix %d via %s: rung %q fell_back=%v cached=%v, want a labelled fallback", i, base, got.Rung, got.FellBack, got.Cached)
		}
	}
}
