package selector

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/nn"
	"repro/internal/represent"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/*_golden.json digests from this build")

const (
	goldenPath              = "testdata/predict_golden.json"
	topEvolveGoldenPath     = "testdata/top_evolvement_golden.json"
	topEvolveGoldenEpochs   = 3
	fromScratchGoldenPath   = "testdata/from_scratch_golden.json"
	fromScratchGoldenEpochs = 2
)

// goldenMatrices is the fixed input set of the bit-identity gate: 200
// seeded synthgen specs (square, tall hypersparse, derived crops and
// permutations) plus shapes the block mapping treats specially — fewer
// rows or columns than the grid, a single row, a single column.
func goldenMatrices() []*sparse.COO {
	var ms []*sparse.COO
	for _, spec := range synthgen.SampleSpecs(200, 1717, 512) {
		ms = append(ms, synthgen.Build(spec))
	}
	ms = append(ms,
		synthgen.Banded(9, 2, 1.0, 3),
		synthgen.Random(5, 300, 120, 4),
		synthgen.Random(300, 5, 120, 5),
		synthgen.Random(1, 77, 30, 6),
		synthgen.Random(77, 1, 30, 7),
	)
	return ms
}

// goldenSelector builds an untrained selector and moves every
// parameter — biases included, which start at zero — off its
// initialisation, so a kernel that adds the bias last or reassociates
// a sum changes the hash.
func goldenSelector(t *testing.T, cfg Config) *Selector {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4242))
	for _, p := range s.Model.Params() {
		d := p.Value.Data()
		for i := range d {
			d[i] += 0.05 * rng.NormFloat64()
		}
	}
	return s
}

// TestPredictGoldenBits pins Predict's probabilities bit for bit to the
// values the im2col + matmul engine produced before the direct
// convolution replaced it (recorded on that commit with
// -update-golden). The hash covers the chosen format and the float64
// bits of every probability over goldenMatrices, per configuration.
// amd64 only: math.Exp is assembly on some other architectures and may
// differ in the last place.
func TestPredictGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden probabilities were recorded on amd64")
	}
	early := DefaultConfig(represent.KindHistogram, sparse.CPUFormats())
	early.Structure = EarlyMerging
	early.Represent.Size, early.Represent.Bins = 24, 9 // odd pooled widths
	configs := []struct {
		name string
		cfg  Config
	}{
		{"binary", DefaultConfig(represent.KindBinary, sparse.CPUFormats())},
		{"binary+density", DefaultConfig(represent.KindBinaryDensity, sparse.CPUFormats())},
		{"histogram", DefaultConfig(represent.KindHistogram, sparse.CPUFormats())},
		{"histogram-early-24x9", early},
	}
	ms := goldenMatrices()
	got := map[string]string{}
	for _, c := range configs {
		s := goldenSelector(t, c.cfg)
		h := sha256.New()
		var buf [8]byte
		for i, m := range ms {
			f, probs, err := s.Predict(m)
			if err != nil {
				t.Fatalf("%s matrix %d: %v", c.name, i, err)
			}
			h.Write([]byte{byte(f)})
			for _, g := range c.cfg.Formats {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(probs[g]))
				h.Write(buf[:])
			}
		}
		got[c.name] = hex.EncodeToString(h.Sum(nil))
	}
	want := goldenDigests(t, goldenPath, got)
	for _, c := range configs {
		if got[c.name] != want[c.name] {
			t.Errorf("%s: probabilities over %d matrices hash to %s, golden %s", c.name, len(ms), got[c.name], want[c.name])
		}
	}
}

// goldenDigests returns the digests committed at path — or, under
// -update-golden, writes got there and returns it.
func goldenDigests(t *testing.T, path string, got map[string]string) map[string]string {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return got
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// paramDigest hashes the float64 bits of every parameter value, in
// Params order.
func paramDigest(params []*nn.Param) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range params {
		for _, v := range p.Value.Data() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTopEvolvementGoldenBits pins top evolvement's result bit for bit
// to what training on the raw inputs produced — towers forward in
// training mode and back-propagated into every epoch — before the
// trainer was fed CNN codes (recorded on that commit with
// -update-golden): Transfer(TopEvolvement) of a perturbed model,
// TrainStreamCtx over a fixed corpus in five chunks (the last one
// partial), learning-rate decay and weight decay on. One digest per
// worker count, because the batch gradient is summed per worker, with
// dropout off; and one, workers=1,dropout, with dropout on, which pins
// Dropout's train path (recorded before the head layers wrote into
// buffers they keep). Replica dropout streams are numbered per layer
// lineage and Transfer clones the source, so the masks depend on this
// retrain alone, not on which tests ran before. amd64 only, as
// TestPredictGoldenBits.
func TestTopEvolvementGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden weights were recorded on amd64")
	}
	d := cpuDataset(t, 72)
	cfg := fastConfig(represent.KindHistogram)
	cfg.Epochs = topEvolveGoldenEpochs
	dropout := cfg.DropoutRate
	if dropout <= 0 {
		t.Fatal("the default config has dropout off; the dropout digest needs it on")
	}
	runs := []struct {
		name    string
		workers int
		dropout float64
	}{
		{"workers=1", 1, 0},
		{"workers=2", 2, 0},
		{"workers=1,dropout", 1, dropout},
	}
	got := map[string]string{}
	for _, r := range runs {
		cfg.DropoutRate = r.dropout
		src := goldenSelector(t, cfg)
		towers := weightBits(src.Model.TowerParams())
		cand, err := Transfer(src, TopEvolvement)
		if err != nil {
			t.Fatal(err)
		}
		cand.Cfg.Workers = r.workers
		losses, err := cand.TrainStreamCtx(context.Background(), DatasetShards(d, 16), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(losses) != topEvolveGoldenEpochs {
			t.Fatalf("%s: trained %d epochs, want %d", r.name, len(losses), topEvolveGoldenEpochs)
		}
		if !bitsEqual(weightBits(cand.Model.TowerParams()), towers) {
			t.Fatalf("%s: training moved the frozen towers", r.name)
		}
		got[r.name] = paramDigest(cand.Model.Params())
	}
	want := goldenDigests(t, topEvolveGoldenPath, got)
	for name, g := range got {
		if g != want[name] {
			t.Errorf("%s: parameters hash to %s, golden %s", name, g, want[name])
		}
	}
}

// TestTopEvolvementRetrainIsRepeatable: two top-evolvement retrains
// from one source in one process, dropout on, give bit-identical
// weights. Each Transfer clones the source, so each retrain numbers its
// dropout replica streams from the start, whatever ran before it.
func TestTopEvolvementRetrainIsRepeatable(t *testing.T) {
	d := cpuDataset(t, 48)
	cfg := fastConfig(represent.KindHistogram)
	cfg.Epochs = 2
	if cfg.DropoutRate <= 0 {
		t.Fatal("the default config has dropout off; this test needs it on")
	}
	src := goldenSelector(t, cfg)
	var digests [2]string
	for i := range digests {
		cand, err := Transfer(src, TopEvolvement)
		if err != nil {
			t.Fatal(err)
		}
		cand.Cfg.Workers = 2
		if _, err := cand.TrainStreamCtx(context.Background(), DatasetShards(d, 16), nil, nil); err != nil {
			t.Fatal(err)
		}
		digests[i] = paramDigest(cand.Model.Params())
	}
	if digests[0] != digests[1] {
		t.Errorf("two retrains from one source: parameters hash to %s, then %s", digests[0], digests[1])
	}
}

// TestFromScratchGoldenBits pins training with every layer learning —
// the towers' Conv2D backward included, which top evolvement never
// reaches — bit for bit to what the im2col + float64 GEMM convolution
// produced (recorded on the last commit that lowered training
// convolutions that way, with -update-golden): TrainStreamCtx on a
// perturbed model, dropout off, per representation and worker count,
// plus the early-merging 24×9 geometry TestPredictGoldenBits uses for
// odd pooled widths. amd64 only, as TestPredictGoldenBits.
func TestFromScratchGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden weights were recorded on amd64")
	}
	d := cpuDataset(t, 48)
	early := fastConfig(represent.KindHistogram)
	early.Structure = EarlyMerging
	early.Represent.Size, early.Represent.Bins = 24, 9
	runs := []struct {
		name    string
		cfg     Config
		workers int
	}{
		{"histogram,workers=1", fastConfig(represent.KindHistogram), 1},
		{"histogram,workers=2", fastConfig(represent.KindHistogram), 2},
		{"binary+density,workers=1", fastConfig(represent.KindBinaryDensity), 1},
		{"binary+density,workers=2", fastConfig(represent.KindBinaryDensity), 2},
		{"histogram-early-24x9,workers=1", early, 1},
	}
	got := map[string]string{}
	for _, r := range runs {
		cfg := r.cfg
		cfg.Epochs, cfg.Workers, cfg.DropoutRate = fromScratchGoldenEpochs, r.workers, 0
		s := goldenSelector(t, cfg)
		losses, err := s.TrainStreamCtx(context.Background(), DatasetShards(d, 16), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(losses) != fromScratchGoldenEpochs {
			t.Fatalf("%s: trained %d epochs, want %d", r.name, len(losses), fromScratchGoldenEpochs)
		}
		got[r.name] = paramDigest(s.Model.Params())
	}
	want := goldenDigests(t, fromScratchGoldenPath, got)
	for name, g := range got {
		if g != want[name] {
			t.Errorf("%s: parameters hash to %s, golden %s", name, g, want[name])
		}
	}
}
