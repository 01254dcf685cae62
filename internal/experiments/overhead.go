package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/dataset"
	"repro/internal/features"
	"repro/internal/machine"
	"repro/internal/nn"
	"repro/internal/represent"
	"repro/internal/selector"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// paperCPUFormats returns the Table 2 format set (helper shared by
// drivers that build selectors without a dataset).
func paperCPUFormats() []sparse.Format { return sparse.CPUFormats() }

// OverheadResult holds the §7.6 runtime-overhead study, all quantities
// expressed in units of one CSR SpMV iteration on the host machine:
// step 1 (input representation / feature extraction) and step 2
// (model inference) for both the CNN and DT methods, plus per-format
// conversion cost estimates.
type OverheadResult struct {
	CSRIterSec float64

	CNNReprX   float64 // histogram construction / SpMV iter
	CNNInferX  float64 // CNN forward pass / SpMV iter
	DTFeatX    float64 // baseline feature extraction / SpMV iter
	DTInferX   float64 // tree walk / SpMV iter
	FullStatsX float64 // extended stats incl. gather-cache sim / SpMV iter

	ConvertX map[sparse.Format]float64 // conversion from COO / SpMV iter
}

// RunOverhead measures the prediction-time overheads on the host
// machine with real wall clocks (the only experiment that uses
// wall-clock time rather than the platform models).
func RunOverhead(o Options, w io.Writer) (*OverheadResult, error) {
	// A mid-sized matrix typical of the corpus.
	c := synthgen.Random(2000, 2000, 40000, o.Seed)
	csr := sparse.NewCSR(c)
	res := &OverheadResult{ConvertX: map[sparse.Format]float64{}}
	res.CSRIterSec = machine.Measure(csr, 0, 11)

	// Both CNN steps are timed as selector.Predict runs them: the
	// representation written into float32 scratch, then the compiled
	// engine's forward pass over it.
	cfg := o.cnnConfig(represent.KindHistogram, paperCPUFormats())
	s, err := selector.New(cfg)
	if err != nil {
		return nil, err
	}
	rep := make([]float32, cfg.Represent.Len())
	res.CNNReprX = timeOf(func() {
		if err := represent.Into(rep, &c.Pattern, cfg.Represent); err != nil {
			panic(err)
		}
	}, 5) / res.CSRIterSec

	eng, err := nn.BuildInfer32(s.Model, selector.InputShapes(cfg))
	if err != nil {
		return nil, err
	}
	probs := make([]float64, eng.Classes())
	res.CNNInferX = timeOf(func() {
		if _, err := eng.PredictInto(probs, func(in []float32) error { copy(in, rep); return nil }); err != nil {
			panic(err)
		}
	}, 5) / res.CSRIterSec

	res.DTFeatX = timeOf(func() { features.BaselineExtract(&c.Pattern) }, 5) / res.CSRIterSec
	res.FullStatsX = timeOf(func() { sparse.ComputeStats(c) }, 5) / res.CSRIterSec

	// A trained stand-in tree: depth comparable to the baseline's.
	tree, err := trainDT(o.cpuDatasetSmall(), nil)
	if err != nil {
		return nil, err
	}
	vec := features.BaselineExtract(&c.Pattern)
	res.DTInferX = timeOf(func() { tree.Predict(vec) }, 101) / res.CSRIterSec

	for _, f := range sparse.CPUFormats() {
		ff := f
		res.ConvertX[f] = timeOf(func() { sparse.MustConvert(c, ff) }, 3) / res.CSRIterSec
	}

	if w != nil {
		fmt.Fprintf(w, "§7.6 prediction overhead (in CSR SpMV iterations; host wall clock)\n")
		fmt.Fprintf(w, "one CSR SpMV iteration: %.3g s\n", res.CSRIterSec)
		fmt.Fprintf(w, "%-28s %10.3f\n", "CNN step 1 (representation):", res.CNNReprX)
		fmt.Fprintf(w, "%-28s %10.3f\n", "CNN step 2 (inference):", res.CNNInferX)
		fmt.Fprintf(w, "%-28s %10.3f\n", "CNN total:", res.CNNReprX+res.CNNInferX)
		fmt.Fprintf(w, "%-28s %10.3f\n", "DT step 1 (features):", res.DTFeatX)
		fmt.Fprintf(w, "%-28s %10.3f\n", "(full stats + cache sim):", res.FullStatsX)
		fmt.Fprintf(w, "%-28s %10.4f\n", "DT step 2 (tree walk):", res.DTInferX)
		fmt.Fprintf(w, "%-28s %10.3f\n", "DT total:", res.DTFeatX+res.DTInferX)
		fmt.Fprintln(w, "format conversion from COO:")
		for _, f := range sparse.CPUFormats() {
			fmt.Fprintf(w, "  %-26s %10.2f\n", f.String()+":", res.ConvertX[f])
		}
	}
	return res, nil
}

// cpuDatasetSmall is a small corpus for fitting the overhead study's
// stand-in tree.
func (o Options) cpuDatasetSmall() *dataset.Dataset {
	lab := machine.NewLabeler(machine.XeonLike(), o.Seed)
	return dataset.Generate(dataset.Config{Count: 120, Seed: o.Seed, MaxN: 256, Workers: o.Workers}, lab)
}

// timeOf returns the minimum duration of f over repeats runs, in
// seconds.
func timeOf(f func(), repeats int) float64 {
	best := 0.0
	for r := 0; r < repeats; r++ {
		start := time.Now()
		f()
		d := time.Since(start).Seconds()
		if r == 0 || d < best {
			best = d
		}
	}
	return best
}

// RunPlatforms prints Table 1.
func RunPlatforms(w io.Writer) {
	fmt.Fprintln(w, "Table 1: simulated hardware platforms")
	for _, name := range []string{"xeonlike", "a8like", "titanlike"} {
		p, _ := machine.PlatformByName(name)
		fmt.Fprintf(w, "  %s\n", p)
	}
}
