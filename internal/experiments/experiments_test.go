package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/represent"
	"repro/internal/selector"
	"repro/internal/sparse"
)

// The experiment tests assert the paper's qualitative shapes at Quick()
// scale. Two deviations from the paper are expected by construction and
// documented in EXPERIMENTS.md §Deviations: with model-based labels the
// decision-tree baseline is stronger than in the paper (the simulated
// labels are near-deterministic functions of the statistics its
// features summarise), so CNN-vs-DT is asserted as "competitive within
// a documented band" here, and the strict who-wins comparison is
// reported at full scale and under wall-clock labels in EXPERIMENTS.md.

// maxAllowedDTLead is the regression band for the CNN-vs-DT comparison
// under model labels (see above).
const maxAllowedDTLead = 0.20

func majorityFrac(m *selector.Metrics) float64 {
	best := 0
	for i := range m.Formats {
		if m.Support(i) > best {
			best = m.Support(i)
		}
	}
	return float64(best) / float64(m.Total())
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; concurrency is race-tested in the worker packages")
	}
	var buf bytes.Buffer
	res, err := RunTable2(Quick(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 4 {
		t.Fatalf("variants: %d", len(res.Variants))
	}
	hist := res.Variant("CNN+Histogram")
	binary := res.Variant("CNN+Binary")
	bd := res.Variant("CNN+Binary+Density")
	dt := res.Variant("DT")
	if hist == nil || dt == nil || binary == nil || bd == nil {
		t.Fatal("missing variants")
	}
	t.Logf("accuracies: hist=%.3f binary=%.3f b+d=%.3f dt=%.3f majority=%.3f",
		hist.Accuracy(), binary.Accuracy(), bd.Accuracy(), dt.Accuracy(), majorityFrac(hist))
	// §7.2: the histogram representation is the best CNN input.
	if hist.Accuracy() < binary.Accuracy()-0.02 {
		t.Errorf("histogram (%.3f) clearly below binary (%.3f)", hist.Accuracy(), binary.Accuracy())
	}
	// The CNN must have learned real structure, not the class prior.
	if hist.Accuracy() <= majorityFrac(hist)+0.02 {
		t.Errorf("CNN accuracy %.3f does not beat majority prior %.3f", hist.Accuracy(), majorityFrac(hist))
	}
	// CNN-vs-DT regression band (see file header).
	if hist.Accuracy() < dt.Accuracy()-maxAllowedDTLead {
		t.Errorf("CNN+Histogram (%.3f) fell out of the documented band below DT (%.3f)",
			hist.Accuracy(), dt.Accuracy())
	}
	if !strings.Contains(buf.String(), "Table 2") {
		t.Fatal("no printed output")
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; concurrency is race-tested in the worker packages")
	}
	res, err := RunTable3(Quick(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hist := res.Variant("CNN+Histogram")
	dt := res.Variant("DT")
	t.Logf("GPU accuracies: hist=%.3f dt=%.3f majority=%.3f",
		hist.Accuracy(), dt.Accuracy(), majorityFrac(hist))
	if len(hist.Formats) != 6 {
		t.Fatalf("GPU format set: %v", hist.Formats)
	}
	if hist.Accuracy() <= majorityFrac(hist)+0.02 {
		t.Errorf("GPU CNN accuracy %.3f does not beat majority prior %.3f",
			hist.Accuracy(), majorityFrac(hist))
	}
	if hist.Accuracy() < dt.Accuracy()-maxAllowedDTLead {
		t.Errorf("GPU: CNN (%.3f) fell out of the documented band below DT (%.3f)",
			hist.Accuracy(), dt.Accuracy())
	}
	// Table 3: COO never wins on the GPU — the ground-truth column must
	// be (near) empty.
	cooIdx := -1
	for i, f := range hist.Formats {
		if f == sparse.FormatCOO {
			cooIdx = i
		}
	}
	if sup := hist.Support(cooIdx); sup > hist.Total()/50 {
		t.Errorf("COO ground truth %d of %d on GPU; Table 3 reports zero", sup, hist.Total())
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; concurrency is race-tested in the worker packages")
	}
	var buf bytes.Buffer
	res, err := RunFig8(Quick(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fig8: %d disagreements, avg %.2fx max %.2fx frac>=1 %.2f; over CSR avg %.2fx max %.2fx",
		len(res.Speedups), res.AvgSpeedup, res.MaxSpeedup, res.FracAbove1,
		res.AvgOverCSR, res.MaxOverCSR)
	if len(res.Speedups) == 0 {
		t.Fatal("CNN and DT never disagree; comparison degenerate")
	}
	// Format selection must pay off against the fixed CSR default
	// (§7.3's 2.23x claim, direction only at this scale).
	if res.AvgOverCSR < 1 {
		t.Errorf("CNN-chosen formats slower than CSR on average: %.3f", res.AvgOverCSR)
	}
	if res.MaxOverCSR < 1.2 {
		t.Errorf("no matrix gains >=1.2x over CSR (max %.2f)", res.MaxOverCSR)
	}
	// On disagreements the speedup distribution must not collapse below
	// parity (paper: avg 1.73x; see EXPERIMENTS.md for the full-scale
	// value under both labelling modes).
	if res.AvgSpeedup < 0.9 {
		t.Errorf("average speedup over DT %.3f far below parity", res.AvgSpeedup)
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; concurrency is race-tested in the worker packages")
	}
	var buf bytes.Buffer
	res, err := RunFig9(Quick(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	accuracyOf := map[selector.TransferMethod][]float64{}
	for i, m := range res.Methods {
		accuracyOf[m] = res.Accuracy[i]
	}
	scratch := accuracyOf[selector.FromScratch]
	cont := accuracyOf[selector.ContinuousEvolvement]
	top := accuracyOf[selector.TopEvolvement]
	t.Logf("fig9 sizes %v\n scratch %v\n cont    %v\n top     %v", res.Sizes, scratch, cont, top)
	// Section 6: at small retraining budgets, the transferred models
	// must dominate training from scratch (the whole point of
	// cross-architecture transfer).
	for i := range res.Sizes[:2] {
		if cont[i] < scratch[i]-0.03 && top[i] < scratch[i]-0.03 {
			t.Errorf("no transfer method competitive with scratch at size %d: scratch=%.2f cont=%.2f top=%.2f",
				res.Sizes[i], scratch[i], cont[i], top[i])
		}
	}
	// The source model must transfer something: accuracy at size 0 above
	// chance (1/4).
	if cont[0] < 0.3 || top[0] < 0.3 {
		t.Errorf("transferred models at chance level: cont=%.2f top=%.2f", cont[0], top[0])
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; concurrency is race-tested in the worker packages")
	}
	var buf bytes.Buffer
	res, err := RunFig11(Quick(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	lateTail := MeanTail(res.LateLoss)
	earlyTail := MeanTail(res.EarlyLoss)
	t.Logf("fig11 tails: late %.4f early %.4f", lateTail, earlyTail)
	if len(res.LateLoss) != Quick().Steps || len(res.EarlyLoss) != Quick().Steps {
		t.Fatal("curve lengths wrong")
	}
	// Shape (§7.5): late merging converges to a lower loss.
	if lateTail >= earlyTail {
		t.Errorf("late merging tail %.4f not below early merging %.4f", lateTail, earlyTail)
	}
}

func TestFig10Prints(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFig10(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Tower 0", "Tower 1", "Conv2D(3x3x16", "Conv2D(3x3x32", "Softmax"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure 10 output missing %q:\n%s", want, out)
		}
	}
}

func TestOverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; concurrency is race-tested in the worker packages")
	}
	var buf bytes.Buffer
	res, err := RunOverhead(Quick(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("overhead: csr=%.3gs repr=%.3fx infer=%.3fx dtfeat=%.3fx dtinfer=%.5fx",
		res.CSRIterSec, res.CNNReprX, res.CNNInferX, res.DTFeatX, res.DTInferX)
	if res.CSRIterSec <= 0 {
		t.Fatal("no CSR baseline time")
	}
	// Shape (§7.6): the DT's step 2 (tree walk) is orders of magnitude
	// below the CNN's forward pass, and both methods' total overheads
	// are finite multiples of one SpMV iteration.
	if res.DTInferX >= res.CNNInferX {
		t.Errorf("tree walk (%.4fx) not cheaper than CNN inference (%.4fx)",
			res.DTInferX, res.CNNInferX)
	}
	for f, x := range res.ConvertX {
		if x <= 0 {
			t.Errorf("conversion cost for %v is %v", f, x)
		}
	}
}

func TestRunPlatformsPrints(t *testing.T) {
	var buf bytes.Buffer
	RunPlatforms(&buf)
	if !strings.Contains(buf.String(), "xeonlike") || !strings.Contains(buf.String(), "titanlike") {
		t.Fatal("platform table incomplete")
	}
}

func TestQuickAndDefaultOptions(t *testing.T) {
	q, d := Quick(), Default()
	if q.Count >= d.Count || q.Epochs > d.Epochs {
		t.Fatal("Quick must be smaller than Default")
	}
	if len(q.RetrainSizes) == 0 || q.Steps == 0 {
		t.Fatal("quick options incomplete")
	}
	cfg := q.cnnConfig(represent.KindHistogram, sparse.CPUFormats())
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}
