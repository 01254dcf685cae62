package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

// lyingBlob is one model payload that passes any envelope CRC but
// declares sizes its bytes do not back.
type lyingBlob struct {
	name    string
	payload []byte
	// restore reports whether RestoreWeights reads the lie too (it
	// ignores the layer specs and the shapes).
	restore bool
}

// lyingBlobs edits the Save blob of a one-Dense model (4 inputs, 3
// outputs: 12 weights and 3 biases) five ways. Before Load checked
// them, each one panicked or, for the last, asked the runtime for the
// 2 GiB of float64s its spec declares.
func lyingBlobs(tb testing.TB) []lyingBlob {
	tb.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, NewModel(nil, []Layer{NewDense(4, 3, rand.New(rand.NewSource(1)))})); err != nil {
		tb.Fatal(err)
	}
	good := buf.Bytes()
	edits := []struct {
		name    string
		restore bool
		edit    func(b *modelBlob)
	}{
		{"shapes cut to one", true, func(b *modelBlob) { b.Shapes = b.Shapes[:1] }},
		{"no frozen flags", true, func(b *modelBlob) { b.Frozen = nil }},
		{"shape short of its weights", false, func(b *modelBlob) { b.Shapes[0] = []int{2, 2} }},
		{"negative dense dimension", false, func(b *modelBlob) { b.Head[0].Ints = []int{-1, 3} }},
		{"2^28 weights declared", false, func(b *modelBlob) { b.Head[0].Ints = []int{1 << 14, 1 << 14} }},
	}
	out := make([]lyingBlob, len(edits))
	for i, e := range edits {
		var b modelBlob
		if err := gob.NewDecoder(bytes.NewReader(good)).Decode(&b); err != nil {
			tb.Fatal(err)
		}
		e.edit(&b)
		var enc bytes.Buffer
		if err := gob.NewEncoder(&enc).Encode(b); err != nil {
			tb.Fatal(err)
		}
		out[i] = lyingBlob{name: e.name, payload: enc.Bytes(), restore: e.restore}
	}
	return out
}

// panicOf runs f and returns what it panicked with, nil if nothing.
func panicOf(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}

// TestLoadRejectsLyingBlob: a CRC-valid model file whose blob
// disagrees with itself is an error from LoadFile, not a panic, and
// refusing the 2^28 declared weights allocates under 1 MiB.
func TestLoadRejectsLyingBlob(t *testing.T) {
	dir := t.TempDir()
	for i, lb := range lyingBlobs(t) {
		path := filepath.Join(dir, fmt.Sprintf("lying-%d.gob", i))
		if err := WriteEnvelopeFile(path, EnvelopeModel, lb.payload); err != nil {
			t.Fatal(err)
		}
		var err error
		if p := panicOf(func() { _, err = LoadFile(path) }); p != nil {
			t.Errorf("%s: LoadFile panicked: %v", lb.name, p)
		} else if err == nil {
			t.Errorf("%s: LoadFile accepted it", lb.name)
		}
		if lb.restore {
			target := NewModel(nil, []Layer{NewDense(4, 3, rand.New(rand.NewSource(2)))})
			if p := panicOf(func() { err = RestoreWeights(target, lb.payload) }); p != nil || err == nil {
				t.Errorf("%s: RestoreWeights accepted it (panic %v)", lb.name, p)
			}
		}
		if raceEnabled {
			continue
		}
		if got := allocBytesPerRun(3, func() { LoadFile(path) }); got >= 1<<20 {
			t.Errorf("%s: %d bytes allocated to refuse it", lb.name, got)
		}
	}
}

// FuzzLoadModel: Load over arbitrary payloads returns a model or an
// error and never panics. Run it under an address-space cap (make
// fuzz does) so an allocation sized by a declared dimension fails the
// target instead of exhausting the host.
func FuzzLoadModel(f *testing.F) {
	for _, lb := range lyingBlobs(f) {
		f.Add(lb.payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if p := panicOf(func() { Load(bytes.NewReader(payload)) }); p != nil {
			t.Fatalf("Load panicked: %v", p)
		}
	})
}
