package dtree

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
	"repro/internal/features"
	"repro/internal/sparse"
)

func diagMatrix(n int) *sparse.COO {
	var es []sparse.Entry
	for i := 0; i < n; i++ {
		es = append(es, sparse.Entry{Row: i, Col: i, Val: 2})
	}
	return sparse.MustCOO(n, n, es)
}

func raggedMatrix(n int) *sparse.COO {
	rng := rand.New(rand.NewSource(5))
	var es []sparse.Entry
	for i := 0; i < n; i++ {
		es = append(es, sparse.Entry{Row: i, Col: rng.Intn(n), Val: 1})
	}
	// One heavy row to break ELL uniformity.
	for j := 0; j < n; j++ {
		es = append(es, sparse.Entry{Row: 0, Col: j, Val: 1})
	}
	return sparse.MustCOO(n, n, es)
}

func TestHeuristicSelectorPredicts(t *testing.T) {
	s := Heuristic(sparse.CPUFormats())
	f, err := s.Predict(diagMatrix(64))
	if err != nil {
		t.Fatal(err)
	}
	if f != sparse.FormatDIA {
		t.Fatalf("pure diagonal predicted %v, want DIA", f)
	}
	f, err = s.Predict(raggedMatrix(64))
	if err != nil {
		t.Fatal(err)
	}
	if f != sparse.FormatCSR {
		t.Fatalf("ragged matrix predicted %v, want CSR", f)
	}
}

// TestHeuristicMissingFormatsDegrade: a format the rule set would pick
// but the platform does not offer degrades to CSR, never to an invalid
// class.
func TestHeuristicMissingFormatsDegrade(t *testing.T) {
	s := Heuristic([]sparse.Format{sparse.FormatCSR, sparse.FormatELL})
	f, err := s.Predict(diagMatrix(64))
	if err != nil {
		t.Fatal(err)
	}
	if f != sparse.FormatCSR {
		t.Fatalf("missing DIA degraded to %v, want CSR", f)
	}
}

func TestSelectorRejectsDegenerateInput(t *testing.T) {
	s := Heuristic(sparse.CPUFormats())
	if _, err := s.Predict(nil); err == nil {
		t.Fatal("nil matrix accepted")
	}
	empty := &sparse.COO{}
	if _, err := s.Predict(empty); err == nil {
		t.Fatal("empty matrix accepted")
	}
	var nilSel *Selector
	if _, err := nilSel.Predict(diagMatrix(4)); !errors.Is(err, ErrBadSelector) {
		t.Fatalf("nil selector: %v", err)
	}
}

// TestFitBaselineRoundTrip: train on separable data, serialise through
// the envelope, reload, and check the predictions survive.
func TestFitBaselineRoundTrip(t *testing.T) {
	formats := sparse.CPUFormats()
	mats := []*sparse.COO{diagMatrix(32), diagMatrix(48), raggedMatrix(32), raggedMatrix(48)}
	labels := []int{2, 2, 1, 1} // DIA, DIA, CSR, CSR under CPUFormats order
	var X [][]float64
	for _, m := range mats {
		X = append(X, features.BaselineExtract(&m.Pattern))
	}
	cfg := DefaultConfig()
	cfg.MinLeafSamples = 1
	s, err := FitBaseline(X, labels, formats, cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "dtree.gob")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range mats {
		want, err := s.Predict(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Predict(m)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("matrix %d: reloaded tree predicts %v, original %v", i, got, want)
		}
	}
}

func TestLoadRejectsCorruptArtifacts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dtree.gob")
	s := Heuristic(sparse.CPUFormats())
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation and bit flips must be rejected by the envelope.
	bad := filepath.Join(dir, "bad.gob")
	if err := os.WriteFile(bad, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Fatal("truncated artifact accepted")
	}
	flip := append([]byte(nil), raw...)
	flip[len(flip)-3] ^= 0x40
	if err := os.WriteFile(bad, flip, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Fatal("corrupt artifact accepted")
	}
	// A wrong-kind envelope (valid checksum, different artifact type).
	if err := durable.WriteEnvelopeFile(bad, durable.EnvelopeSelector, []byte("nope")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); !errors.Is(err, durable.ErrWrongKind) {
		t.Fatalf("wrong-kind artifact: %v", err)
	}
	// A decodable blob with an out-of-range leaf class.
	var buf bytes.Buffer
	blob := selectorBlob{NumClasses: 2, Formats: []int{1, 2}, Nodes: []flatNode{{Class: 7, Left: -1, Right: -1}}}
	if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
		t.Fatal(err)
	}
	if err := durable.WriteEnvelopeFile(bad, durable.EnvelopeDTree, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Fatal("out-of-range leaf class accepted")
	}
}

// TestLoadRejectsUnknownFormat: a tree whose format list names a number
// no format has — 2 and 8 once numbered CSC and SELL-C-σ — is refused,
// not served as "Format(n)"; the same artifact unpatched loads.
func TestLoadRejectsUnknownFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := Heuristic(sparse.CPUFormats()).Save(&buf); err != nil {
		t.Fatal(err)
	}
	var blob selectorBlob
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&blob); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("unpatched tree: %v", err)
	}
	for _, bad := range []int{-1, 2, 8, 99} {
		blob.Formats[0] = bad
		var patched bytes.Buffer
		if err := gob.NewEncoder(&patched).Encode(blob); err != nil {
			t.Fatal(err)
		}
		s, err := Load(&patched)
		if err == nil {
			t.Errorf("format %d: tree loaded with formats %v", bad, s.Formats)
		} else if !errors.Is(err, ErrBadSelector) {
			t.Errorf("format %d: %v, want ErrBadSelector", bad, err)
		}
	}
}
