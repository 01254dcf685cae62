package selector

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/dtree"
	"repro/internal/sparse"
)

// unknownFormats are format numbers no format has: 2 and 8 numbered
// CSC and SELL-C-σ, which are gone; -1 and 99 never meant anything.
var unknownFormats = []int{-1, 2, 8, 99}

// savedSelector is a real selector artifact, its first format replaced
// by bad when patch is set.
func savedSelector(tb testing.TB, patch bool, bad int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := tinySelector(tb).Save(&buf); err != nil {
		tb.Fatal(err)
	}
	if !patch {
		return buf.Bytes()
	}
	var blob selectorBlob
	if err := gob.NewDecoder(&buf).Decode(&blob); err != nil {
		tb.Fatal(err)
	}
	blob.Header.Formats[0] = bad
	return gobBytes(tb, blob)
}

// treeBlob mirrors the decision tree's wire form; gob matches struct
// fields by name, so it decodes and re-encodes a saved tree.
type treeBlob struct {
	NumClasses int
	Formats    []int
	Nodes      []struct {
		Class, Feature int
		Threshold      float64
		Left, Right    int
	}
}

// savedTree is a real decision-tree artifact, its first format replaced
// by bad when patch is set.
func savedTree(tb testing.TB, patch bool, bad int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := dtree.Heuristic(sparse.CPUFormats()).Save(&buf); err != nil {
		tb.Fatal(err)
	}
	if !patch {
		return buf.Bytes()
	}
	var blob treeBlob
	if err := gob.NewDecoder(&buf).Decode(&blob); err != nil {
		tb.Fatal(err)
	}
	blob.Formats[0] = bad
	return gobBytes(tb, blob)
}

func gobBytes(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRejectsUnknownFormat: a selector whose header names a format
// number no format has is refused, not served as "Format(n)"; the same
// artifact unpatched loads.
func TestLoadRejectsUnknownFormat(t *testing.T) {
	if _, err := Load(bytes.NewReader(savedSelector(t, false, 0))); err != nil {
		t.Fatalf("unpatched selector: %v", err)
	}
	for _, bad := range unknownFormats {
		if s, err := Load(bytes.NewReader(savedSelector(t, true, bad))); err == nil {
			t.Errorf("format %d: selector loaded with formats %v", bad, s.Cfg.Formats)
		}
	}
}

// FuzzLoadSelector runs both selector loaders over arbitrary blobs,
// seeded with a real selector and a real tree and with both patched to
// name unknown formats. Neither may panic, and whatever loads names
// only formats that exist. Run it under an address-space cap (make fuzz
// does), as FuzzLoadModel: the selector's blob carries a model.
func FuzzLoadSelector(f *testing.F) {
	f.Add(savedSelector(f, false, 0))
	f.Add(savedTree(f, false, 0))
	for _, bad := range unknownFormats {
		f.Add(savedSelector(f, true, bad))
		f.Add(savedTree(f, true, bad))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		if s, err := Load(bytes.NewReader(blob)); err == nil {
			if err := sparse.CheckFormats(s.Cfg.Formats); err != nil {
				t.Fatalf("selector.Load accepted %v", err)
			}
		}
		if s, err := dtree.Load(bytes.NewReader(blob)); err == nil {
			if err := sparse.CheckFormats(s.Formats); err != nil {
				t.Fatalf("dtree.Load accepted %v", err)
			}
		}
	})
}
