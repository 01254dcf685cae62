package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// its own calls (nothing inside internal/ is instrumented). Spans of one
// operation share Op; Parent is the ID of the span that caused this one
// (0 for a root). Replay marks a span timed by running the same input
// through the layer's public function after the operation finished, so
// its interval does not lie inside its parent's; self-time arithmetic
// therefore works on durations, not on interval overlap.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Replay  bool   `json:"replay,omitempty"`
}

func (s span) dur() float64 { return float64(s.EndNs - s.StartNs) }

// recorder keeps spans in memory until the run ends. It is used from
// one goroutine at a time (recording happens after the measured window,
// or under the caller's lock).
type recorder struct {
	t0    time.Time
	spans []span
}

// newRecorder starts a recorder whose span offsets count from t0.
func newRecorder(t0 time.Time) *recorder { return &recorder{t0: t0} }

// add records a span from wall-clock endpoints and returns its ID.
func (r *recorder) add(parent, op int, name string, start, end time.Time, replay bool) int {
	return r.addNs(parent, op, name, int64(start.Sub(r.t0)), int64(end.Sub(r.t0)), replay)
}

func (r *recorder) addNs(parent, op int, name string, startNs, endNs int64, replay bool) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: startNs, EndNs: endNs, Replay: replay})
	return id
}

// timed runs f as a child span and returns its ID.
func (r *recorder) timed(parent, op int, name string, replay bool, f func()) int {
	start := time.Now()
	f()
	return r.add(parent, op, name, start, time.Now(), replay)
}

// selfTimes returns, per span ID, the span's duration minus the summed
// durations of its direct children, in nanoseconds. A child sum larger
// than the parent (replayed children can be slower than the original
// call) clamps at zero rather than going negative.
func selfTimes(spans []span) map[int]float64 {
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur()
	}
	for _, s := range spans {
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for id, v := range self {
		if v < 0 {
			self[id] = 0
		}
	}
	return self
}

// layerOf maps a span name to its layer: the prefix before the first
// dot ("sparse.parse" belongs to sparse). Root spans have no dot and
// belong to no layer.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return ""
}

// layerSelf sums self time per layer, in nanoseconds. Time that belongs
// to no layer (the roots' own self time) is returned under "".
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[layerOf(s.Name)] += self[s.ID]
	}
	return out
}

// durations collects the durations (ns) of every span with the name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (r *recorder) write(outDir, workload string) (string, error) {
	path := filepath.Join(outDir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, r.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
