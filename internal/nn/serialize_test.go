package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/durable"
	"repro/internal/tensor"
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
		if err := durable.WriteEnvelopeFile(path, durable.EnvelopeModel, lb.payload); err != nil {
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
		var m *Model
		var err error
		if p := panicOf(func() { m, err = Load(bytes.NewReader(payload)) }); p != nil {
			t.Fatalf("Load panicked: %v", p)
		}
		if err != nil {
			return
		}
		c, err := Clone(m)
		if err != nil {
			t.Fatalf("Clone of a loaded model: %v", err)
		}
		if err := sameModel(m, c); err != nil {
			t.Fatalf("Clone differs from the loaded model: %v", err)
		}
	})
}

// sameModel describes the first way b differs from a — a layer's type
// or spec, a Dropout's rate or seed, a parameter's name, Frozen flag,
// value or gradient shape or bits — and is nil when they agree.
func sameModel(a, b *Model) error {
	if len(a.Towers) != len(b.Towers) || len(a.Head) != len(b.Head) {
		return fmt.Errorf("%d towers and %d head layers vs %d and %d",
			len(a.Towers), len(a.Head), len(b.Towers), len(b.Head))
	}
	layers := func(m *Model) []Layer {
		var ls []Layer
		for _, tw := range m.Towers {
			ls = append(ls, tw...)
		}
		return append(ls, m.Head...)
	}
	la, lb := layers(a), layers(b)
	for i, tw := range a.Towers {
		if len(tw) != len(b.Towers[i]) {
			return fmt.Errorf("tower %d: %d layers vs %d", i, len(tw), len(b.Towers[i]))
		}
	}
	for i := range la {
		if reflect.TypeOf(la[i]) != reflect.TypeOf(lb[i]) {
			return fmt.Errorf("layer %d: %T vs %T", i, la[i], lb[i])
		}
		sa, _ := specOf(la[i])
		sb, _ := specOf(lb[i])
		if sa.Type != sb.Type || !slices.Equal(sa.Ints, sb.Ints) ||
			math.Float64bits(sa.Rate) != math.Float64bits(sb.Rate) {
			return fmt.Errorf("layer %d: spec %v vs %v", i, sa, sb)
		}
		if da, ok := la[i].(*Dropout); ok {
			if db := lb[i].(*Dropout); da.seed != db.seed {
				return fmt.Errorf("layer %d: dropout seed %d vs %d", i, da.seed, db.seed)
			}
		}
	}
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		return fmt.Errorf("%d params vs %d", len(pa), len(pb))
	}
	for i := range pa {
		x, y := pa[i], pb[i]
		if x.Name != y.Name || x.Frozen != y.Frozen {
			return fmt.Errorf("param %d: %s frozen %v vs %s frozen %v", i, x.Name, x.Frozen, y.Name, y.Frozen)
		}
		for _, t := range [][2]*tensor.Tensor{{x.Value, y.Value}, {x.Grad, y.Grad}} {
			if !slices.Equal(t[0].Shape(), t[1].Shape()) {
				return fmt.Errorf("param %d: shape %v vs %v", i, t[0].Shape(), t[1].Shape())
			}
			for j, v := range t[0].Data() {
				if math.Float64bits(v) != math.Float64bits(t[1].Data()[j]) {
					return fmt.Errorf("param %d[%d]: %v vs %v", i, j, v, t[1].Data()[j])
				}
			}
		}
	}
	return nil
}

// cloneCases are the architectures TestCloneIsLoadOfSave forks: one
// tower and two, dropout after the hidden layer, before it, twice and
// not at all, with and without mixed Frozen flags.
func cloneCases() []struct {
	name string
	m    *Model
} {
	rng := rand.New(rand.NewSource(31))
	tower := func() []Layer {
		return []Layer{NewConv2D(1, 4, 3, 3, 1, 1, 1, 1, rng), NewReLU(), NewMaxPool2D(2, 2), NewFlatten()}
	}
	mixed := NewModel([][]Layer{tower(), tower()}, []Layer{
		NewDense(72, 16, rng), NewReLU(), NewDropout(0.25, 3), NewDense(16, 8, rng), NewDropout(0.1, 4), NewDense(8, 3, rng)})
	for i, p := range mixed.Params() {
		p.Frozen = i%3 == 1
	}
	frozen := toyModel(rng)
	frozen.FreezeTowers(true)
	return []struct {
		name string
		m    *Model
	}{
		{"one tower, dropout after the hidden layer", NewModel([][]Layer{tower()}, []Layer{
			NewDense(36, 16, rng), NewReLU(), NewDropout(0.25, 1), NewDense(16, 3, rng)})},
		{"two towers, dropout before the hidden layer", NewModel([][]Layer{tower(), tower()}, []Layer{
			NewDropout(0.5, 2), NewDense(72, 16, rng), NewReLU(), NewDense(16, 3, rng)})},
		{"two towers, no dropout, towers frozen", frozen},
		{"two dropouts, mixed frozen flags", mixed},
	}
}

// TestCloneIsLoadOfSave: Clone forks a model without serialising it,
// and the fork is what a Save and Load round trip gives — every weight
// bit, shape and Frozen flag, every dropout rate and seed, fresh zero
// gradients — it saves to the same bytes as its source, and writing to
// its values and gradients leaves the source untouched.
func TestCloneIsLoadOfSave(t *testing.T) {
	for _, c := range cloneCases() {
		m := c.m
		for _, p := range m.Params() {
			p.Grad.Fill(1.5) // a clone starts with zero gradients, as a load does
		}
		var saved bytes.Buffer
		if err := Save(&saved, m); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		clone, err := Clone(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameModel(loaded, clone); err != nil {
			t.Errorf("%s: Clone differs from Load(Save): %v", c.name, err)
		}
		var resaved bytes.Buffer
		if err := Save(&resaved, clone); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
			t.Errorf("%s: Save(Clone(m)) is not Save(m)", c.name)
		}

		for _, p := range clone.Params() {
			p.Value.Fill(7)
			p.Grad.Fill(7)
		}
		resaved.Reset()
		if err := Save(&resaved, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
			t.Errorf("%s: writing to the clone's values changed the source", c.name)
		}
		for _, p := range m.Params() {
			if slices.ContainsFunc(p.Grad.Data(), func(g float64) bool { return g != 1.5 }) {
				t.Fatalf("%s: writing to the clone's gradients changed the source", c.name)
			}
		}
	}
}
