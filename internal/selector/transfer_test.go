package selector

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/machine"
	"repro/internal/nn"
	"repro/internal/represent"
	"repro/internal/sparse"
	"repro/internal/synthgen"
	"repro/internal/tensor"
)

// tinySelector builds a small CPU-format selector suitable for a few
// training steps in a unit test.
func tinySelector(t testing.TB) *Selector {
	t.Helper()
	cfg := DefaultConfig(represent.KindHistogram, sparse.CPUFormats())
	cfg.Represent.Size = 16
	cfg.Represent.Bins = 8
	cfg.Epochs = 2
	cfg.BatchSize = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tinySamples labels a handful of banded matrices on xeonlike and
// normalises them into training samples for s.
func tinySamples(t *testing.T, s *Selector) []nn.Sample {
	t.Helper()
	p, err := machine.PlatformByName("xeonlike")
	if err != nil {
		t.Fatal(err)
	}
	lab := machine.NewLabeler(p, 11)
	d := &dataset.Dataset{Platform: p.Name, Formats: lab.Formats}
	for i := 0; i < 8; i++ {
		spec := synthgen.Spec{Family: synthgen.FamilyBanded, N: 24 + i, Band: 2, Fill: 0.9, Seed: int64(i + 1)}
		m := synthgen.Build(spec)
		st := sparse.ComputeStats(m)
		label, times := lab.Label(st, uint64(i))
		d.Records = append(d.Records, dataset.Record{
			ID: uint64(i), Spec: spec, Stats: st, Label: label, Times: times,
		})
	}
	samples, err := s.Samples(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// weightBits snapshots every parameter value exactly (bit patterns, not
// float comparisons) keyed by parameter name.
func weightBits(params []*nn.Param) map[string][]uint64 {
	out := make(map[string][]uint64, len(params))
	for _, p := range params {
		data := p.Value.Data()
		bits := make([]uint64, len(data))
		for i, v := range data {
			bits[i] = math.Float64bits(v)
		}
		out[p.Name] = bits
	}
	return out
}

// bitsEqual reports whether two snapshots are bit-identical.
func bitsEqual(a, b map[string][]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for name, av := range a {
		bv, ok := b[name]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

func frozenCount(params []*nn.Param) int {
	n := 0
	for _, p := range params {
		if p.Frozen {
			n++
		}
	}
	return n
}

// TestTopEvolvementFreezesTowers: the top-evolvement migration must
// freeze every tower parameter and none of the head, and training must
// leave the frozen tower weights bit-identical while the head moves.
func TestTopEvolvementFreezesTowers(t *testing.T) {
	src := tinySelector(t)
	srcTowers := weightBits(src.Model.TowerParams())
	nTower := len(src.Model.TowerParams()) // the head's params follow the towers'
	srcHead := weightBits(src.Model.Params()[nTower:])

	cand, err := Transfer(src, TopEvolvement)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := frozenCount(cand.Model.TowerParams()), len(cand.Model.TowerParams()); got != want {
		t.Fatalf("top evolvement froze %d of %d tower params", got, want)
	}
	if got := frozenCount(cand.Model.Params()[nTower:]); got != 0 {
		t.Fatalf("top evolvement froze %d head params, want 0", got)
	}
	if !bitsEqual(weightBits(cand.Model.TowerParams()), srcTowers) {
		t.Fatal("transfer changed tower weights before any training")
	}

	samples := tinySamples(t, cand)
	if _, err := cand.TrainSamples(samples); err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(weightBits(cand.Model.TowerParams()), srcTowers) {
		t.Fatal("training moved frozen tower weights; top evolvement must leave them bit-identical")
	}
	if bitsEqual(weightBits(cand.Model.Params()[nTower:]), srcHead) {
		t.Fatal("training left every head weight bit-identical; the unfrozen head should move")
	}

	// src is never mutated: weights and freeze flags are untouched.
	if !bitsEqual(weightBits(src.Model.Params()), mergeBits(srcTowers, srcHead)) {
		t.Fatal("Transfer or training mutated the source model's weights")
	}
	if got := frozenCount(src.Model.Params()); got != 0 {
		t.Fatalf("Transfer froze %d params on the source model, want 0", got)
	}
}

// TestContinuousEvolvementFreezesNothing: the continuous-evolvement
// migration initialises from the source weights, freezes nothing, and
// training moves the towers too.
func TestContinuousEvolvementFreezesNothing(t *testing.T) {
	src := tinySelector(t)
	srcAll := weightBits(src.Model.Params())

	cand, err := Transfer(src, ContinuousEvolvement)
	if err != nil {
		t.Fatal(err)
	}
	if got := frozenCount(cand.Model.Params()); got != 0 {
		t.Fatalf("continuous evolvement froze %d params, want 0", got)
	}
	if !bitsEqual(weightBits(cand.Model.Params()), srcAll) {
		t.Fatal("continuous evolvement should start from the source weights exactly")
	}

	samples := tinySamples(t, cand)
	if _, err := cand.TrainSamples(samples); err != nil {
		t.Fatal(err)
	}
	if bitsEqual(weightBits(cand.Model.TowerParams()), weightBits(src.Model.TowerParams())) {
		t.Fatal("training left the towers bit-identical; continuous evolvement should fine-tune them")
	}
	if !bitsEqual(weightBits(src.Model.Params()), srcAll) {
		t.Fatal("training the transferred model mutated the source model")
	}
}

// TestFromScratchReinitialises: the from-scratch baseline discards the
// source weights entirely.
func TestFromScratchReinitialises(t *testing.T) {
	src := tinySelector(t)
	cand, err := Transfer(src, FromScratch)
	if err != nil {
		t.Fatal(err)
	}
	if got := frozenCount(cand.Model.Params()); got != 0 {
		t.Fatalf("from scratch froze %d params, want 0", got)
	}
	if bitsEqual(weightBits(cand.Model.Params()), weightBits(src.Model.Params())) {
		t.Fatal("from scratch reused the source weights; it must reinitialise")
	}
	if got, want := cand.Cfg.Seed, src.Cfg.Seed+977; got != want {
		t.Fatalf("from scratch seed = %d, want %d", got, want)
	}
}

// TestTransferUnknownMethod: an out-of-range method is a typed error,
// not a silent fallback.
func TestTransferUnknownMethod(t *testing.T) {
	src := tinySelector(t)
	if _, err := Transfer(src, TransferMethod(42)); err == nil {
		t.Fatal("Transfer accepted an unknown method")
	}
}

// mergeBits unions two snapshots (tower + head partitions of Params).
func mergeBits(a, b map[string][]uint64) map[string][]uint64 {
	out := make(map[string][]uint64, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

// oldLoadDropouts is how Load seeded each Dropout when it still built
// every layer with NewConv2D and NewDense and then overwrote their
// weights: m's layers rebuilt in Params() order from one
// rand.NewSource(0), and each Dropout given the next Int63.
func oldLoadDropouts(m *nn.Model) []*nn.Dropout {
	rng := rand.New(rand.NewSource(0))
	var out []*nn.Dropout
	var layers []nn.Layer
	for _, tw := range m.Towers {
		layers = append(layers, tw...)
	}
	for _, l := range append(layers, m.Head...) {
		switch v := l.(type) {
		case *nn.Conv2D:
			nn.NewConv2D(v.InC, v.OutC, v.KH, v.KW, v.StrideH, v.StrideW, v.PadH, v.PadW, rng)
		case *nn.Dense:
			nn.NewDense(v.In, v.Out, rng)
		case *nn.Dropout:
			out = append(out, nn.NewDropout(v.Rate, rng.Int63()))
		}
	}
	return out
}

// dropoutsOf returns m's Dropout layers in order.
func dropoutsOf(m *nn.Model) []*nn.Dropout {
	var out []*nn.Dropout
	for _, l := range m.Head {
		if d, ok := l.(*nn.Dropout); ok {
			out = append(out, d)
		}
	}
	return out
}

// TestLoadReplaysDropoutSeed: Load and Clone no longer build weights to
// throw away, and a Dropout they build still draws the masks the old
// construction's seed gives it — at the shipped geometry, the paper's
// and under early merging.
func TestLoadReplaysDropoutSeed(t *testing.T) {
	early := DefaultConfig(represent.KindBinaryDensity, sparse.CPUFormats())
	early.Structure = EarlyMerging
	for name, cfg := range map[string]Config{
		"default binary":    DefaultConfig(represent.KindBinary, sparse.CPUFormats()),
		"default histogram": DefaultConfig(represent.KindHistogram, sparse.CPUFormats()),
		"paper histogram":   PaperConfig(represent.KindHistogram, sparse.CPUFormats()),
		"early merging":     early,
	} {
		src, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := nn.Save(&buf, src.Model); err != nil {
			t.Fatal(err)
		}
		loaded, err := nn.Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		clone, err := nn.Clone(src.Model)
		if err != nil {
			t.Fatal(err)
		}
		for what, got := range map[string][]*nn.Dropout{"Load": dropoutsOf(loaded), "Clone": dropoutsOf(clone)} {
			want := oldLoadDropouts(src.Model)
			if len(got) != len(want) || len(want) == 0 {
				t.Fatalf("%s: %s built %d dropout layers, want %d", name, what, len(got), len(want))
			}
			for i, d := range got {
				in := tensor.New(4096)
				in.Fill(1)
				for step := 0; step < 3; step++ {
					a, b := want[i].Forward(in, true).Data(), d.Forward(in, true).Data()
					for j := range a {
						if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
							t.Fatalf("%s: %s dropout %d mask %d differs at %d", name, what, i, step, j)
						}
					}
				}
			}
		}
	}
}
