package feedback

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/represent"
	"repro/internal/selector"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// testMatrix builds a deterministic small banded matrix.
func testMatrix(t testing.TB, seed int64) *sparse.COO {
	t.Helper()
	spec := synthgen.Spec{Family: synthgen.FamilyBanded, N: 24 + int(seed%8), Band: 3, Fill: 0.9, Seed: seed}
	return synthgen.Build(spec)
}

func newTestLogger(t *testing.T, dir string, mut func(*LoggerConfig)) *Logger {
	t.Helper()
	cfg := LoggerConfig{Dir: dir, FlushInterval: 10 * time.Millisecond}
	if mut != nil {
		mut(&cfg)
	}
	l, err := NewLogger(cfg)
	if err != nil {
		t.Fatalf("NewLogger: %v", err)
	}
	return l
}

func TestLoggerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := newTestLogger(t, dir, nil)
	m := testMatrix(t, 1)
	l.Record(&m.Pattern, Entry{Fingerprint: sparse.Fingerprint(m), Format: "CSR", Rung: "cnn", ModelGen: 1})
	l.Record(&m.Pattern, Entry{Fingerprint: sparse.Fingerprint(m), Format: "DIA", Rung: "dtree", FellBack: true, CacheHit: true, ModelGen: 1})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, err := SegmentFiles(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("SegmentFiles = %v, %v; want one sealed segment", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	var got []Entry
	for _, line := range splitLines(data) {
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		got = append(got, e)
	}
	if len(got) != 2 {
		t.Fatalf("got %d entries, want 2", len(got))
	}
	if got[0].Format != "CSR" || got[1].Rung != "dtree" || !got[1].CacheHit {
		t.Fatalf("entries lost fields: %+v", got)
	}
	if got[0].Stats.NNZ != m.NNZ() {
		t.Fatalf("flusher did not fill stats: %+v", got[0].Stats)
	}
	if !got[0].HasPattern() {
		t.Fatal("small matrix should carry its pattern")
	}
	rebuilt, err := sparse.UnitCOO(got[0].Stats.Rows, got[0].Stats.Cols, got[0].PatRows, got[0].PatCols)
	if err != nil {
		t.Fatalf("UnitCOO: %v", err)
	}
	if sparse.Fingerprint(rebuilt) != got[0].Fingerprint {
		t.Fatal("rebuilt pattern does not fingerprint-match the original")
	}
}

func splitLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			if i > start {
				out = append(out, data[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func TestLoggerRotatesBySize(t *testing.T) {
	dir := t.TempDir()
	l := newTestLogger(t, dir, func(c *LoggerConfig) { c.MaxSegmentBytes = 512 })
	for i := int64(0); i < 12; i++ {
		m := testMatrix(t, i)
		l.Record(&m.Pattern, Entry{Fingerprint: sparse.Fingerprint(m), Format: "CSR", Rung: "cnn"})
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := SegmentFiles(dir)
	if len(segs) < 2 {
		t.Fatalf("got %d segments, want >= 2 (size rotation)", len(segs))
	}
}

func TestLoggerSealsStaleActiveFile(t *testing.T) {
	dir := t.TempDir()
	// Simulate a crashed replica's leftover active file.
	stale := filepath.Join(dir, activeName)
	if err := os.WriteFile(stale, []byte(`{"fp":1,"format":"CSR"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l := newTestLogger(t, dir, nil)
	defer l.Close()
	segs, _ := SegmentFiles(dir)
	if len(segs) != 1 {
		t.Fatalf("stale active file was not sealed: segments = %v", segs)
	}
}

func TestLoggerEstimatesTimings(t *testing.T) {
	dir := t.TempDir()
	l := newTestLogger(t, dir, nil)
	m := testMatrix(t, 3)
	l.Record(&m.Pattern, Entry{Fingerprint: sparse.Fingerprint(m), Format: "CSR", Rung: "cnn"})
	// A client-reported timing suppresses the estimate.
	l.Record(&m.Pattern, Entry{Fingerprint: sparse.Fingerprint(m), Format: "CSR", Rung: "cnn", ClientSec: 0.5})
	// A scattered matrix answered as DIA: ~16k diagonals of 8192 lanes
	// would be a gigabyte to materialise; the estimate converts nothing.
	scattered := synthgen.Build(synthgen.Spec{Family: synthgen.FamilyRandom, N: 8192, NNZ: 20000, Seed: 9})
	l.Record(&scattered.Pattern, Entry{Fingerprint: sparse.Fingerprint(scattered), Format: "DIA", Rung: "dtree"})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := SegmentFiles(dir)
	data, _ := os.ReadFile(segs[0])
	lines := splitLines(data)
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	var est, reported, dia Entry
	for i, e := range []*Entry{&est, &reported, &dia} {
		if err := json.Unmarshal(lines[i], e); err != nil {
			t.Fatal(err)
		}
	}
	if want := machine.XeonLike().EstimateSeconds(est.Stats, sparse.FormatCSR); est.EstSec <= 0 || est.EstSec != want {
		t.Fatalf("est_spmv_sec = %g, want the cost model's %g", est.EstSec, want)
	}
	if reported.EstSec != 0 || reported.ClientSec != 0.5 {
		t.Fatalf("client-reported timing mangled: %+v", reported)
	}
	if dia.Stats.NumDiags < 8192 {
		t.Fatalf("scattered matrix has only %d diagonals", dia.Stats.NumDiags)
	}
	// JSON cannot carry NaN or Inf, so a third line that parsed is finite.
	if dia.EstSec <= 0 {
		t.Fatalf("DIA estimate for a scattered matrix = %g, want positive", dia.EstSec)
	}
}

func testLabeler(t testing.TB) *machine.Labeler {
	t.Helper()
	p, err := machine.PlatformByName("xeonlike")
	if err != nil {
		t.Fatal(err)
	}
	return machine.NewLabeler(p, 42)
}

// fillSegments produces n rotated segments of captured traffic.
func fillSegments(t *testing.T, dir string, seeds []int64) {
	t.Helper()
	l := newTestLogger(t, dir, nil)
	for _, s := range seeds {
		m := testMatrix(t, s)
		l.Record(&m.Pattern, Entry{Fingerprint: sparse.Fingerprint(m), Format: "CSR", Rung: "cnn", ModelGen: 1})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorFoldDedupPersistResume(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(t.TempDir(), "corpus.store")
	fillSegments(t, dir, []int64{1, 2, 3, 1, 2}) // two duplicates

	c, err := NewCollector(CollectorConfig{SegmentDir: dir, CorpusPath: corpus, Labeler: testLabeler(t)})
	if err != nil {
		t.Fatalf("NewCollector: %v", err)
	}
	rep, err := c.Collect()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if rep.Folded != 3 || rep.Duplicates != 2 {
		t.Fatalf("fold = %+v; want 3 folded, 2 duplicates", rep)
	}
	if segs, _ := SegmentFiles(dir); len(segs) != 0 {
		t.Fatalf("folded segments not removed: %v", segs)
	}
	d, err := c.Corpus()
	if err != nil {
		t.Fatalf("Corpus: %v", err)
	}
	if len(d.Records) != 3 || d.Platform != "xeonlike" {
		t.Fatalf("corpus = %d records on %q", len(d.Records), d.Platform)
	}
	for _, r := range d.Records {
		if m := r.Matrix(); sparse.Fingerprint(m) != r.ID {
			t.Fatalf("corpus record %x pattern mismatch", r.ID)
		}
	}

	// A fresh collector resumes the persisted state: same records, and
	// the dedup set survives so re-captured traffic folds to nothing.
	c2, err := NewCollector(CollectorConfig{SegmentDir: dir, CorpusPath: corpus, Labeler: testLabeler(t)})
	if err != nil {
		t.Fatalf("NewCollector(resume): %v", err)
	}
	if c2.Records() != 3 {
		t.Fatalf("resumed collector has %d records, want 3", c2.Records())
	}
	fillSegments(t, dir, []int64{1, 2, 3})
	rep2, err := c2.Collect()
	if err != nil {
		t.Fatalf("Collect(resume): %v", err)
	}
	if rep2.Folded != 0 || rep2.Duplicates != 3 {
		t.Fatalf("resumed fold = %+v; want 0 folded, 3 duplicates", rep2)
	}
}

func TestCollectorDiscardsCorruptState(t *testing.T) {
	// Three shapes of unusable state at the corpus path: a store damaged
	// beyond salvage, a store labeled for another platform, and a regular
	// file (what the retired monolithic corpus.gob would be).
	damaged := func(t *testing.T, corpus string) {
		dir := t.TempDir()
		fillSegments(t, dir, []int64{1, 2})
		c, err := NewCollector(CollectorConfig{SegmentDir: dir, CorpusPath: corpus, Labeler: testLabeler(t)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Collect(); err != nil {
			t.Fatal(err)
		}
		shards, _ := filepath.Glob(filepath.Join(corpus, "corpus-0*.bin"))
		if len(shards) == 0 {
			t.Fatal("fold published no shard")
		}
		for _, sh := range shards {
			if err := os.WriteFile(sh, []byte("not a shard"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := map[string]func(t *testing.T, corpus string){
		"store damaged beyond salvage": damaged,
		"store of another platform": func(t *testing.T, corpus string) {
			if _, err := dataset.CreateStore(corpus, "a8like", sparse.CPUFormats(), 0); err != nil {
				t.Fatal(err)
			}
		},
		"regular file": func(t *testing.T, corpus string) {
			if err := os.WriteFile(corpus, []byte("not an envelope"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, prepare := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			corpus := filepath.Join(t.TempDir(), "corpus.store")
			prepare(t, corpus)
			var log bytes.Buffer
			c, err := NewCollector(CollectorConfig{SegmentDir: dir, CorpusPath: corpus, Labeler: testLabeler(t), Log: &log})
			if err != nil {
				t.Fatalf("NewCollector should start fresh on corrupt state, got %v", err)
			}
			if c.Records() != 0 {
				t.Fatalf("corrupt state not discarded: %d records", c.Records())
			}
			if !strings.Contains(log.String(), "discarding persisted online corpus") {
				t.Fatalf("discard not logged: %q", log.String())
			}
			// The fresh corpus is usable.
			fillSegments(t, dir, []int64{5})
			if rep, err := c.Collect(); err != nil || rep.Folded != 1 {
				t.Fatalf("fold after discard: %+v, %v", rep, err)
			}
		})
	}
}

// The cap evicts oldest-first by rewriting the store; evicted
// fingerprints stay in the dedup set across restarts, and a rewrite
// killed between its two renames is finished by the next start.
func TestCollectorEvictionKeepsDedupSet(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(t.TempDir(), "corpus.store")
	cfg := CollectorConfig{SegmentDir: dir, CorpusPath: corpus, Labeler: testLabeler(t), MaxRecords: 2}
	c, err := NewCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillSegments(t, dir, []int64{1, 2, 3, 4})
	rep, err := c.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Folded != 4 || rep.Records != 2 {
		t.Fatalf("fold = %+v; want 4 folded, 2 kept", rep)
	}
	d, err := c.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if want := sparse.Fingerprint(testMatrix(t, 3)); len(d.Records) != 2 || d.Records[0].ID != want {
		t.Fatalf("eviction kept the wrong records: first ID %x, want %x (the third folded)", d.Records[0].ID, want)
	}

	// Model a kill between the two renames of a later eviction.
	if err := os.Rename(corpus, corpus+".compact"); err != nil {
		t.Fatal(err)
	}
	c2, err := NewCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Records() != 2 {
		t.Fatalf("interrupted swap not finished: %d records", c2.Records())
	}
	fillSegments(t, dir, []int64{1, 2, 3, 4})
	if rep, err = c2.Collect(); err != nil || rep.Folded != 0 || rep.Duplicates != 4 {
		t.Fatalf("re-captured traffic after eviction and restart: %+v, %v; want 4 duplicates", rep, err)
	}
}

// Two collectors that evict the same fingerprints write the same
// .seen bytes: the set is written sorted, not in map order.
func TestCollectorSeenFileIsDeterministic(t *testing.T) {
	var seen [2][]byte
	for i := range seen {
		dir := t.TempDir()
		corpus := filepath.Join(t.TempDir(), "corpus.store")
		c, err := NewCollector(CollectorConfig{SegmentDir: dir, CorpusPath: corpus, Labeler: testLabeler(t), MaxRecords: 2})
		if err != nil {
			t.Fatal(err)
		}
		fillSegments(t, dir, []int64{1, 2, 3, 4, 5, 6, 7, 8})
		if rep, err := c.Collect(); err != nil || rep.Records != 2 {
			t.Fatalf("fold = %+v, %v; want 2 records kept of 8", rep, err)
		}
		if seen[i], err = os.ReadFile(c.seenPath()); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(seen[0], seen[1]) {
		t.Fatal("two collectors evicting the same six fingerprints wrote different .seen files")
	}
}

func TestCollectorSkipsTornLines(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(t.TempDir(), "corpus.store")
	fillSegments(t, dir, []int64{7})
	segs, _ := SegmentFiles(dir)
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `{"fp":9,"forma`) // torn mid-write
	f.Close()
	c, err := NewCollector(CollectorConfig{SegmentDir: dir, CorpusPath: corpus, Labeler: testLabeler(t)})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Collect()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if rep.SkippedLines != 1 || rep.Folded != 1 {
		t.Fatalf("fold = %+v; want 1 folded, 1 skipped torn line", rep)
	}
}

// driftEntry fabricates an entry with controllable stats.
func driftEntry(format, rung string, hit bool, st sparse.Stats) Entry {
	return Entry{Format: format, Rung: rung, CacheHit: hit, Stats: st}
}

func baselineStats() sparse.Stats {
	return sparse.Stats{Rows: 64, Cols: 64, NNZ: 256, AvgRowNNZ: 4, NumDiags: 7}
}

func baselineProfile() Profile {
	fv := FeatureVector(baselineStats())
	sd := make([]float64, len(fv))
	for i := range sd {
		sd[i] = 0.5
	}
	return Profile{
		Platform:    "xeonlike",
		Count:       100,
		LabelMix:    map[string]float64{"CSR": 1},
		FeatureMean: fv,
		FeatureSD:   sd,
	}
}

func TestDetectorTripsOnMixShift(t *testing.T) {
	det := NewDetector(baselineProfile(), DetectorConfig{Window: 8, TripAfter: 2, ClearAfter: 2})
	// Baseline traffic: matches the profile, stays stable.
	for i := 0; i < 16; i++ {
		det.Observe(driftEntry("CSR", "cnn", false, baselineStats()))
	}
	if det.Drifted() {
		t.Fatal("detector tripped on baseline traffic")
	}
	// Shifted traffic: the prediction mix flips entirely to dia.
	for i := 0; i < 16; i++ {
		det.Observe(driftEntry("DIA", "cnn", false, baselineStats()))
	}
	if !det.Drifted() {
		t.Fatalf("detector did not trip on a full mix flip: %+v", det.Snapshot())
	}
	snap := det.Snapshot()
	if snap.MixDistance < 0.9 {
		t.Fatalf("mix distance = %g, want ~1.0", snap.MixDistance)
	}
	// Hysteresis: one clean window does not clear confirmed drift.
	for i := 0; i < 8; i++ {
		det.Observe(driftEntry("CSR", "cnn", false, baselineStats()))
	}
	if !det.Drifted() {
		t.Fatal("one clean window cleared confirmed drift (ClearAfter=2)")
	}
	for i := 0; i < 8; i++ {
		det.Observe(driftEntry("CSR", "cnn", false, baselineStats()))
	}
	if det.Drifted() {
		t.Fatal("drift did not clear after ClearAfter clean windows")
	}
}

func TestDetectorTripsOnFeatureShift(t *testing.T) {
	det := NewDetector(baselineProfile(), DetectorConfig{Window: 8, TripAfter: 2})
	shifted := baselineStats()
	shifted.NumDiags = 200 // log1p moves ~3.3 vs SD 0.5
	for i := 0; i < 16; i++ {
		det.Observe(driftEntry("CSR", "cnn", false, shifted))
	}
	if !det.Drifted() {
		t.Fatalf("detector did not trip on feature shift: %+v", det.Snapshot())
	}
	if got := det.Snapshot().ShiftedFeature; got != "log_ndiags" {
		t.Fatalf("shifted feature = %q, want log_ndiags", got)
	}
}

func TestDetectorTripsOnRungOccupancy(t *testing.T) {
	det := NewDetector(baselineProfile(), DetectorConfig{Window: 8, TripAfter: 2})
	for i := 0; i < 16; i++ {
		det.Observe(driftEntry("CSR", "dtree", false, baselineStats()))
	}
	if !det.Drifted() {
		t.Fatalf("detector did not trip on non-CNN rung occupancy: %+v", det.Snapshot())
	}
}

func TestDetectorRebase(t *testing.T) {
	det := NewDetector(baselineProfile(), DetectorConfig{Window: 8, TripAfter: 2})
	for i := 0; i < 16; i++ {
		det.Observe(driftEntry("DIA", "cnn", false, baselineStats()))
	}
	if !det.Drifted() {
		t.Fatal("setup: detector should be tripped")
	}
	p := baselineProfile()
	p.LabelMix = map[string]float64{"DIA": 1}
	det.Rebase(p)
	if det.Drifted() {
		t.Fatal("Rebase did not clear drift state")
	}
	for i := 0; i < 16; i++ {
		det.Observe(driftEntry("DIA", "cnn", false, baselineStats()))
	}
	if det.Drifted() {
		t.Fatal("detector tripped on traffic matching the rebased profile")
	}
}

func TestDetectorMetricsExported(t *testing.T) {
	reg := obs.NewRegistry()
	det := NewDetector(baselineProfile(), DetectorConfig{Window: 4, Registry: reg})
	for i := 0; i < 4; i++ {
		det.Observe(driftEntry("CSR", "cnn", false, baselineStats()))
	}
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	vals, err := obs.ParseMetrics(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := vals["feedback_drift_state"]; !ok {
		t.Fatalf("feedback_drift_state not exported: %v", vals)
	}
	if vals[`feedback_drift_windows_total{verdict="clean"}`] != 1 {
		t.Fatalf("clean window not counted: %v", vals)
	}
}

func TestShepherdJournalResume(t *testing.T) {
	work := t.TempDir()
	lab := testLabeler(t)
	col, err := NewCollector(CollectorConfig{
		SegmentDir: t.TempDir(), CorpusPath: filepath.Join(work, "corpus.store"), Labeler: lab,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Shepherd {
		det := NewDetector(baselineProfile(), DetectorConfig{})
		s, err := NewShepherd(ShepherdConfig{
			WorkDir: work, ModelPath: filepath.Join(work, "model.gob"),
			AdminURL: "http://127.0.0.1:1", Collector: col, Detector: det,
		})
		if err != nil {
			t.Fatalf("NewShepherd: %v", err)
		}
		return s
	}
	s := mk()
	if s.State() != StateObserving {
		t.Fatalf("fresh shepherd state = %q", s.State())
	}
	if err := s.transition(StateRetraining, "test drift", 0); err != nil {
		t.Fatalf("transition: %v", err)
	}
	s.candidate = filepath.Join(work, "candidate.gob")
	s.liveAcc, s.candAcc = 0.5, 0.75
	if err := s.transition(StateShadowing, "test candidate", 0); err != nil {
		t.Fatalf("transition: %v", err)
	}

	// A restarted shepherd resumes from the journal's last line.
	s2 := mk()
	if s2.State() != StateShadowing {
		t.Fatalf("resumed state = %q, want shadowing", s2.State())
	}
	if s2.candidate != s.candidate || s2.candAcc != 0.75 {
		t.Fatalf("resumed candidate context lost: %q acc=%g", s2.candidate, s2.candAcc)
	}

	entries, err := ReadJournal(s.journalPath())
	if err != nil || len(entries) != 2 {
		t.Fatalf("journal = %d entries, %v; want 2", len(entries), err)
	}
	if entries[0].To != StateRetraining || entries[1].To != StateShadowing {
		t.Fatalf("journal transitions wrong: %+v", entries)
	}
	if _, err := os.Stat(s.scorecardPath()); err != nil {
		t.Fatalf("scorecard not written on transition: %v", err)
	}
}

// TestShepherdRetrainRecordsWallTime runs the retraining state on a
// small online corpus: the candidate lands on disk, the machine moves
// to shadowing, and the training call's wall time is in the transition
// reason (the log and journal line) and the retrain_seconds gauge.
func TestShepherdRetrainRecordsWallTime(t *testing.T) {
	work, segs := t.TempDir(), t.TempDir()
	lab := testLabeler(t)
	fillSegments(t, segs, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	col, err := NewCollector(CollectorConfig{SegmentDir: segs, CorpusPath: filepath.Join(work, "corpus.store"), Labeler: lab})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.Collect(); err != nil {
		t.Fatal(err)
	}
	cfg := selector.DefaultConfig(represent.KindBinary, lab.Formats)
	cfg.Represent.Size, cfg.BatchSize = 16, 4
	live, err := selector.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(work, "model.gob")
	if err := live.SaveFile(modelPath); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, err := NewShepherd(ShepherdConfig{
		WorkDir: work, ModelPath: modelPath, AdminURL: "http://127.0.0.1:1",
		Collector: col, Detector: NewDetector(baselineProfile(), DetectorConfig{}),
		RetrainEpochs: 2, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.retrain(context.Background()); err != nil {
		t.Fatalf("retrain: %v", err)
	}
	if s.State() != StateShadowing {
		t.Fatalf("state after retrain = %q, want shadowing", s.State())
	}
	if _, err := selector.LoadFile(s.candidatePath()); err != nil {
		t.Fatalf("candidate artifact: %v", err)
	}
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	vals, err := obs.ParseMetrics(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if vals["feedback_shepherd_retrains_total"] != 1 {
		t.Fatalf("retrains_total = %v, want 1", vals["feedback_shepherd_retrains_total"])
	}
	if secs, ok := vals["feedback_shepherd_retrain_seconds"]; !ok || secs <= 0 {
		t.Fatalf("feedback_shepherd_retrain_seconds = %v (exported %v), want > 0", secs, ok)
	}
	entries, err := ReadJournal(s.journalPath())
	if err != nil || len(entries) != 1 {
		t.Fatalf("journal = %d entries, %v; want 1", len(entries), err)
	}
	var n int
	var secs, liveAcc, candAcc float64
	if _, err := fmt.Sscanf(entries[0].Reason, "candidate retrained on %d records in %fs: live_acc=%f cand_acc=%f",
		&n, &secs, &liveAcc, &candAcc); err != nil || n != 12 {
		t.Fatalf("transition reason %q: %v", entries[0].Reason, err)
	}
}

func TestCorruptFileBreaksEnvelope(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.gob")
	if err := os.WriteFile(path, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.CorruptFile(path); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if string(data) == "0123456789" {
		t.Fatal("CorruptFile changed nothing")
	}
}

func TestReplaceFileAtomic(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src")
	dst := filepath.Join(dir, "dst")
	os.WriteFile(src, []byte("candidate"), 0o644)
	os.WriteFile(dst, []byte("live"), 0o644)
	if err := installFile(src, dst); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(dst)
	if string(data) != "candidate" {
		t.Fatalf("dst = %q", data)
	}
	leftovers, _ := filepath.Glob(filepath.Join(dir, ".dst.tmp-*"))
	if len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}

func TestNewProfileFromDataset(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(t.TempDir(), "corpus.store")
	fillSegments(t, dir, []int64{1, 2, 3, 4})
	c, err := NewCollector(CollectorConfig{SegmentDir: dir, CorpusPath: corpus, Labeler: testLabeler(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Collect(); err != nil {
		t.Fatal(err)
	}
	d, err := c.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	p := NewProfile(d)
	if p.Count != 4 || p.Platform != "xeonlike" {
		t.Fatalf("profile = %+v", p)
	}
	var mix float64
	for _, v := range p.LabelMix {
		mix += v
	}
	if mix < 0.99 || mix > 1.01 {
		t.Fatalf("label mix sums to %g", mix)
	}
	if len(p.FeatureMean) != len(FeatureNames) {
		t.Fatalf("feature means = %d, want %d", len(p.FeatureMean), len(FeatureNames))
	}
}
