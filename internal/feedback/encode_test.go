package feedback

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// TestLoggerLinesAreJSONMarshal: the flusher appends an entry's pattern
// arrays by hand, and every line it writes is still byte for byte what
// json.Marshal makes of the entry — over the serving mixture with the
// pattern captured, dropped for its size, or not captured at all, and
// for a matrix with no nonzeros (whose empty arrays are omitted).
func TestLoggerLinesAreJSONMarshal(t *testing.T) {
	empty, err := sparse.NewPattern(7, 5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pats := []*sparse.Pattern{empty}
	for _, spec := range synthgen.SampleSpecs(24, 11, 256) {
		pats = append(pats, &synthgen.Build(spec).Pattern)
	}
	for name, tc := range map[string]struct {
		maxPatternNNZ int
		patterned     func(nnz int) bool
	}{
		"captured":         {0, func(nnz int) bool { return nnz > 0 && nnz <= 4096 }},
		"over the budget":  {200, func(nnz int) bool { return nnz > 0 && nnz <= 200 }},
		"capture disabled": {-1, func(int) bool { return false }},
	} {
		dir := t.TempDir()
		l := newTestLogger(t, dir, func(c *LoggerConfig) { c.MaxPatternNNZ = tc.maxPatternNNZ })
		for i, p := range pats {
			e := Entry{Fingerprint: p.Fingerprint(), Format: "CSR", Rung: "cnn", ModelGen: 3, CacheHit: i%2 == 0}
			if i%3 == 0 {
				e.Format, e.Rung, e.FellBack, e.ClientSec = "DIA", "dtree", true, 0.125
			}
			l.Record(p, e)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		segs, _ := SegmentFiles(dir)
		var lines [][]byte
		for _, seg := range segs {
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, splitLines(data)...)
		}
		if len(lines) != len(pats) {
			t.Fatalf("%s: %d lines for %d entries", name, len(lines), len(pats))
		}
		withPattern, dropped := 0, 0
		for i, line := range lines {
			var e Entry
			if err := json.Unmarshal(line, &e); err != nil {
				t.Fatalf("%s: bad line %q: %v", name, line, err)
			}
			want, err := json.Marshal(&e)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(line, want) {
				t.Fatalf("%s: entry %d is not json.Marshal's bytes:\n got %s\nwant %s", name, i, line, want)
			}
			p := pats[i]
			if e.Stats != p.Stats() {
				t.Fatalf("%s: entry %d carries another matrix's stats", name, i)
			}
			if e.HasPattern() != tc.patterned(p.NNZ()) {
				t.Fatalf("%s: entry %d (%d nonzeros) has pattern = %v", name, i, p.NNZ(), e.HasPattern())
			}
			if e.HasPattern() {
				withPattern++
				m, err := sparse.UnitCOO(e.Stats.Rows, e.Stats.Cols, e.PatRows, e.PatCols)
				if err != nil || m.Fingerprint() != e.Fingerprint {
					t.Fatalf("%s: entry %d does not rebuild its matrix (err %v)", name, i, err)
				}
			} else if p.NNZ() > 0 {
				dropped++
			}
		}
		if name == "over the budget" && (withPattern == 0 || dropped == 0) {
			t.Fatalf("the mixture has %d entries under the budget and %d over: the case tests nothing", withPattern, dropped)
		}
	}
}

// BenchmarkLoggerProcess is what the flusher pays per entry at the size
// of a typical request (serve's 2,088-nonzero bench matrix): statistics,
// the cost-model estimate, rendering the line and the buffered write.
func BenchmarkLoggerProcess(b *testing.B) {
	const n, band = 300, 3
	var es []sparse.Entry
	for i := 0; i < n; i++ {
		for j := max(i-band, 0); j <= min(i+band, n-1); j++ {
			es = append(es, sparse.Entry{Row: i, Col: j, Val: 1})
		}
	}
	m := sparse.MustCOO(n, n, es)
	// The flusher goroutine sleeps through the run: process is called
	// from here, and nothing rotates.
	l, err := NewLogger(LoggerConfig{Dir: b.TempDir(), FlushInterval: time.Hour, MaxSegmentAge: time.Hour, MaxSegmentBytes: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	p := pending{pat: &m.Pattern, e: Entry{Fingerprint: m.Fingerprint(), Format: "CSR", Rung: "cnn", ModelGen: 1, CacheHit: true}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.process(p)
	}
	b.StopTimer()
	if l.firstErr != nil {
		b.Fatal(l.firstErr)
	}
	l.Close()
}
