package selector

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/machine"
	"repro/internal/represent"
	"repro/internal/sparse"
)

func cpuDataset(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	lab := machine.NewLabeler(machine.XeonLike(), 1)
	return dataset.Generate(dataset.Config{Count: n, Seed: 42, MaxN: 256}, lab)
}

func fastConfig(kind represent.Kind) Config {
	cfg := DefaultConfig(kind, sparse.CPUFormats())
	cfg.Represent.Size = 16
	cfg.Represent.Bins = 8
	cfg.Epochs = 18
	cfg.BatchSize = 16
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(represent.KindHistogram, sparse.CPUFormats())
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Formats = bad.Formats[:1]
	if err := bad.Validate(); err == nil {
		t.Fatal("single format accepted")
	}
	bad = good
	bad.Blocks = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("no blocks accepted")
	}
	bad = good
	bad.HiddenUnits = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero hidden units accepted")
	}
}

func TestBuildModelShapes(t *testing.T) {
	for _, kind := range represent.Kinds() {
		for _, structure := range []Structure{LateMerging, EarlyMerging} {
			cfg := DefaultConfig(kind, sparse.CPUFormats())
			cfg.Structure = structure
			m, err := BuildModel(cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", kind, structure, err)
			}
			wantTowers := cfg.Represent.Channels()
			if structure == EarlyMerging {
				wantTowers = 1
			}
			if len(m.Towers) != wantTowers {
				t.Fatalf("%v/%v: %d towers, want %d", kind, structure, len(m.Towers), wantTowers)
			}
		}
	}
}

// The Figure 10 architecture must be constructible at full 128×128 scale
// with the published layer shapes.
func TestPaperCNNShapes(t *testing.T) {
	cfg := PaperConfig(represent.KindBinaryDensity, sparse.CPUFormats())
	m, err := BuildModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	summary := m.Summary(InputShapes(cfg))
	if summary == "" {
		t.Fatal("no summary")
	}
	// Verify the tower shape chain of Figure 10:
	// 128x128 -> conv16/s1 -> 128 -> pool -> 64 (64x64x16)
	// -> conv32/s2 -> 32 -> pool -> 16 (16x16x32)
	// -> conv32/s2 -> 8 -> pool -> 4 (4x4x32)
	shape := []int{1, 128, 128}
	for _, l := range m.Towers[0] {
		shape = l.OutShape(shape)
	}
	if shape[0] != 512 { // flattened 32*4*4
		t.Fatalf("tower output %v, want 512 features", shape)
	}
	// Merged feature size: two towers -> 1024, matching the paper's
	// "1024x1" merge annotation.
	headIn := 2 * 512
	if got := cfg.HiddenUnits; got != 64 {
		t.Fatalf("hidden units %d", got)
	}
	_ = headIn
}

func TestTrainEvaluateLateMergingHistogram(t *testing.T) {
	d := cpuDataset(t, 260)
	cfg := fastConfig(represent.KindHistogram)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train, test := d.Split(0.25, 9)
	losses, err := s.Train(d, train)
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("training loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
	m, err := s.Evaluate(d, test)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("histogram CNN accuracy: %.2f\n%s", m.Accuracy(), m)
	// Majority class is below ~0.8; learning must beat it.
	if m.Accuracy() < 0.72 {
		t.Fatalf("accuracy %.2f too low", m.Accuracy())
	}
}

func TestPredictReturnsConfiguredFormat(t *testing.T) {
	d := cpuDataset(t, 40)
	cfg := fastConfig(represent.KindBinary)
	cfg.Epochs = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train(d, nil); err != nil {
		t.Fatal(err)
	}
	f, probs, err := s.Predict(d.Records[0].Matrix())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	sum := 0.0
	for _, g := range cfg.Formats {
		if g == f {
			found = true
		}
		sum += probs[g]
	}
	if !found {
		t.Fatalf("predicted %v not in configured formats", f)
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

func TestSamplesLabelMapping(t *testing.T) {
	d := cpuDataset(t, 30)
	s, err := New(fastConfig(represent.KindHistogram))
	if err != nil {
		t.Fatal(err)
	}
	samples, err := s.Samples(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, sm := range samples {
		if sm.Label != d.ClassIndex(d.Records[i].Label) {
			t.Fatalf("sample %d label mismatch", i)
		}
		if len(sm.Inputs) != 2 {
			t.Fatalf("sample %d has %d inputs", i, len(sm.Inputs))
		}
	}
}

func TestEarlyMergingStacksChannels(t *testing.T) {
	d := cpuDataset(t, 10)
	cfg := fastConfig(represent.KindHistogram)
	cfg.Structure = EarlyMerging
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := s.Samples(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples[0].Inputs) != 1 || samples[0].Inputs[0].Dim(0) != 2 {
		t.Fatalf("early merging input shape %v", samples[0].Inputs[0].Shape())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := cpuDataset(t, 30)
	cfg := fastConfig(represent.KindHistogram)
	cfg.Epochs = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train(d, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m := d.Records[5].Matrix()
	f1, p1, err := s.Predict(m)
	if err != nil {
		t.Fatal(err)
	}
	f2, p2, err := s2.Predict(m)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("prediction changed after round trip")
	}
	for k, v := range p1 {
		if p2[k] != v {
			t.Fatal("probabilities changed after round trip")
		}
	}
	if len(s2.Cfg.Formats) != len(s.Cfg.Formats) || s2.Cfg.Represent.Kind != s.Cfg.Represent.Kind {
		t.Fatal("config lost in round trip")
	}
}

func TestTransferMethods(t *testing.T) {
	cfg := fastConfig(represent.KindHistogram)
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range TransferMethods() {
		dst, err := Transfer(src, method)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		switch method {
		case FromScratch:
			// Fresh weights: must differ from source.
			if dst.Model.Params()[0].Value.Data()[0] == src.Model.Params()[0].Value.Data()[0] {
				t.Fatal("from-scratch model shares initialisation")
			}
		case ContinuousEvolvement:
			if dst.Model.Params()[0].Value.Data()[0] != src.Model.Params()[0].Value.Data()[0] {
				t.Fatal("continuous evolvement must inherit weights")
			}
			for _, p := range dst.Model.TowerParams() {
				if p.Frozen {
					t.Fatal("continuous evolvement must not freeze")
				}
			}
			// Mutating the copy must not touch the source.
			dst.Model.Params()[0].Value.Data()[0] += 5
			if src.Model.Params()[0].Value.Data()[0] == dst.Model.Params()[0].Value.Data()[0] {
				t.Fatal("transfer shares storage with source")
			}
		case TopEvolvement:
			frozen := 0
			for _, p := range dst.Model.TowerParams() {
				if p.Frozen {
					frozen++
				}
			}
			if frozen != len(dst.Model.TowerParams()) {
				t.Fatal("top evolvement must freeze all tower params")
			}
			for _, p := range dst.Model.Params()[len(dst.Model.TowerParams()):] {
				if p.Frozen {
					t.Fatal("top evolvement must not freeze the head")
				}
			}
		}
	}
	if _, err := Transfer(src, TransferMethod(9)); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestMetrics(t *testing.T) {
	m := NewMetrics(sparse.CPUFormats())
	// true COO pred COO; true CSR pred COO; true CSR pred CSR ×2.
	m.Add(0, 0)
	m.Add(1, 0)
	m.Add(1, 1)
	m.Add(1, 1)
	if m.Total() != 4 {
		t.Fatal("total")
	}
	if m.Accuracy() != 0.75 {
		t.Fatalf("accuracy %v", m.Accuracy())
	}
	if m.Recall(1) != 2.0/3 || m.Precision(0) != 0.5 || m.Precision(1) != 1 {
		t.Fatalf("per-format metrics wrong: recall1=%v prec0=%v", m.Recall(1), m.Precision(0))
	}
	if m.Support(1) != 3 {
		t.Fatal("support")
	}
	if m.Recall(3) != 0 || m.Precision(3) != 0 {
		t.Fatal("empty class metrics must be 0")
	}
	other := NewMetrics(sparse.CPUFormats())
	other.Add(2, 2)
	m.Merge(other)
	if m.Total() != 5 || m.Confusion[2][2] != 1 {
		t.Fatal("merge")
	}
	if m.String() == "" {
		t.Fatal("String")
	}
}

func TestStructureString(t *testing.T) {
	if LateMerging.String() != "late-merging" || EarlyMerging.String() != "early-merging" {
		t.Fatal("structure names")
	}
}

func TestSummaryNonEmpty(t *testing.T) {
	s, err := New(fastConfig(represent.KindHistogram))
	if err != nil {
		t.Fatal(err)
	}
	if s.Summary() == "" {
		t.Fatal("empty summary")
	}
}
