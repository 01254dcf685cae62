package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/machine"
	"repro/internal/represent"
	"repro/internal/selector"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// saveModel writes a tiny CPU-format selector artifact.
func saveModel(t *testing.T, path string) {
	t.Helper()
	cfg := selector.DefaultConfig(represent.KindHistogram, sparse.CPUFormats())
	cfg.Represent.Size = 16
	cfg.Represent.Bins = 8
	s, err := selector.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
}

// saveCorpus writes a small corpus store labeled for the named platform.
func saveCorpus(t *testing.T, path, platform string) {
	t.Helper()
	p, err := machine.PlatformByName(platform)
	if err != nil {
		t.Fatal(err)
	}
	lab := machine.NewLabeler(p, 3)
	d := &dataset.Dataset{Platform: p.Name, Formats: lab.Formats}
	for i := 0; i < 4; i++ {
		spec := synthgen.Spec{Family: synthgen.FamilyBanded, N: 24 + i, Band: 2, Fill: 0.9, Seed: int64(i + 1)}
		m := synthgen.Build(spec)
		st := sparse.ComputeStats(m)
		label, times := lab.Label(st, uint64(i))
		d.Records = append(d.Records, dataset.Record{
			ID: uint64(i), Spec: spec, Stats: st, Label: label, Times: times,
		})
	}
	if _, err := dataset.WriteStore(path, d, 0); err != nil {
		t.Fatal(err)
	}
}

// TestDatasetGatingMismatchExitsNonZero is the regression test for the
// -dataset gating contract: a corpus labeled for a different platform
// must exit 1 with the typed mismatch spelled out — never silently
// fall back to collecting a fresh corpus on the target.
func TestDatasetGatingMismatchExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "model.gob")
	corpus := filepath.Join(dir, "corpus.store")
	saveModel(t, model)
	saveCorpus(t, corpus, "a8like") // CPU format set, wrong platform name

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-model", model,
		"-target", "xeonlike",
		"-dataset", corpus,
		"-out", filepath.Join(dir, "out.gob"),
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d for mismatched corpus, want 1 (stderr: %s)", code, stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "was not labeled for xeonlike") {
		t.Fatalf("stderr does not name the mismatch: %q", msg)
	}
	// The gate must have stopped the run before any retraining output.
	if out := stdout.String(); strings.Contains(out, "retraining") {
		t.Fatalf("mismatched corpus still reached retraining:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "out.gob")); !os.IsNotExist(err) {
		t.Fatal("mismatched corpus still produced an output model")
	}
}

// TestDatasetGatingCorruptExitsNonZero: a corpus store damaged beyond
// salvage must exit 1 with the corruption typed, not fall back. (Damage
// that leaves survivors is salvaged and migration proceeds on them —
// that contract is drilled by scripts/corpusdrill.)
func TestDatasetGatingCorruptExitsNonZero(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "model.gob")
	corpus := filepath.Join(dir, "corpus.store")
	saveModel(t, model)
	saveCorpus(t, corpus, "xeonlike")
	shards, err := filepath.Glob(filepath.Join(corpus, "corpus-0*.bin"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shards in %s (%v)", corpus, err)
	}
	for _, shard := range shards {
		data, err := os.ReadFile(shard)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shard, data[:20], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-model", model,
		"-target", "xeonlike",
		"-dataset", corpus,
		"-out", filepath.Join(dir, "out.gob"),
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d for corrupt corpus, want 1 (stderr: %s)", code, stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "corrupt") {
		t.Fatalf("stderr does not name the corruption: %q", msg)
	}
}

// TestValidDatasetMigrates is the happy-path control: a corpus labeled
// for the target platform passes the gate and produces a model.
func TestValidDatasetMigrates(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "model.gob")
	corpus := filepath.Join(dir, "corpus.store")
	out := filepath.Join(dir, "out.gob")
	saveModel(t, model)
	saveCorpus(t, corpus, "xeonlike")

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-model", model,
		"-target", "xeonlike",
		"-dataset", corpus,
		"-out", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, want 0 (stderr: %s)", code, stderr.String())
	}
	if _, err := selector.LoadFile(out); err != nil {
		t.Fatalf("migrated model does not load: %v", err)
	}
}
