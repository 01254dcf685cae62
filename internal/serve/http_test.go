package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/selector"
	"repro/internal/sparse"
)

// response is the predict answer as encoding/json rendered it from a
// map of format names, before answer's probabilities rendered
// themselves: the reference TestAnswerWireBytes holds the wire to, and
// what the tests decode a 200 into.
type response struct {
	Format          string             `json:"format"`
	Probs           map[string]float64 `json:"probs,omitempty"`
	FellBack        bool               `json:"fell_back"`
	Reason          string             `json:"reason,omitempty"`
	Cached          bool               `json:"cached"`
	Coalesced       bool               `json:"coalesced,omitempty"`
	Rung            string             `json:"rung"`
	ModelGeneration uint64             `json:"model_generation"`
	TraceID         string             `json:"trace_id,omitempty"`
	Trace           []obs.Span         `json:"trace,omitempty"`
}

// referenceResponse is a as the old makeResponse built it.
func referenceResponse(a answer) response {
	r := response{
		Format: a.Format, FellBack: a.FellBack, Reason: a.Reason, Cached: a.Cached, Coalesced: a.Coalesced,
		Rung: a.Rung, ModelGeneration: a.ModelGeneration, TraceID: a.TraceID, Trace: a.Trace,
	}
	if a.Probs != nil {
		r.Probs = make(map[string]float64, len(a.Probs))
		for f, v := range a.Probs {
			r.Probs[f.String()] = v
		}
	}
	return r
}

// TestAnswerWireBytes: an answer is the bytes encoding/json wrote for
// the map-based response — for every format set, each rung, cached,
// uncached, coalesced, fallen back and traced, with probabilities from
// 1e-7 to 1 and across the 1e-6 switch to exponent form — and a
// probability with no JSON form fails the encoding either way.
func TestAnswerWireBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := []float64{1e-7, 9.999999e-7, 1e-6, 1.0000001e-6, 3.3e-7, 0.000123, 0.25, 1.0 / 3, 0.9999999, 1, 0, 1e21}
	for range 40 {
		values = append(values, math.Pow(10, -7*rng.Float64()))
	}
	tr := obs.NewTrace()
	tr.ObserveSpan("parse", time.Now().Add(-time.Millisecond))
	tr.ObserveSpan("cache", time.Now())
	sets := map[string][]sparse.Format{
		"cpu": sparse.CPUFormats(), "gpu": sparse.GPUFormats(), "all": sparse.AllFormats(),
		"outside the names": {sparse.FormatCSR, sparse.Format(99), sparse.FormatCOO},
	}
	k := 0
	for name, formats := range sets {
		for i := 0; i < 8; i++ {
			p := selector.Prediction{Format: formats[i%len(formats)], Probs: map[sparse.Format]float64{}}
			for _, f := range formats {
				p.Probs[f] = values[k%len(values)]
				k++
			}
			answers := map[string]answer{
				"uncached": makeAnswer(p, 3, false, rungCNN),
				"cached":   makeAnswer(p, 3, true, rungCNN),
				"dtree":    makeAnswer(p, 1, false, rungDTree),
			}
			a := makeAnswer(p, 2, false, rungCNN)
			a.Coalesced = true
			answers["coalesced"] = a
			a = makeAnswer(p, 2, true, rungCNN)
			a.TraceID, a.Trace = tr.ID(), tr.Spans()
			answers["traced"] = a
			fell := selector.Prediction{Format: sparse.FormatCSR, FellBack: true, Reason: fmt.Errorf("%w: <nil> & \"more\"", selector.ErrBadInput)}
			answers["fallback"] = makeAnswer(fell, 1, false, rungCSR)
			for kind, a := range answers {
				got, err := json.Marshal(a)
				if err != nil {
					t.Fatalf("%s %d %s: %v", name, i, kind, err)
				}
				want, _ := json.Marshal(referenceResponse(a))
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %d %s:\n got %s\nwant %s", name, i, kind, got, want)
				}
				rr := httptest.NewRecorder()
				writeJSON(rr, 200, a)
				if !bytes.Equal(rr.Body.Bytes(), append(want, '\n')) {
					t.Fatalf("%s %d %s: writeJSON wrote %s", name, i, kind, rr.Body.Bytes())
				}
			}
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		a := makeAnswer(selector.Prediction{Format: sparse.FormatCSR, Probs: map[sparse.Format]float64{sparse.FormatCSR: v}}, 1, false, rungCNN)
		if _, err := json.Marshal(a); err == nil {
			t.Errorf("probability %v encoded", v)
		}
		if _, err := json.Marshal(referenceResponse(a)); err == nil {
			t.Errorf("the reference encoded probability %v", v)
		}
	}
}
