// Package bench holds the top-level benchmark harness: one benchmark
// per paper table/figure (driving the experiments package at a reduced
// scale), SpMV kernel benchmarks per storage format, and ablation
// benchmarks for the design choices called out in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// The per-table benchmarks exist to regenerate the paper's rows from a
// single command; EXPERIMENTS.md records full-scale results.
package bench

import (
	"context"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/nn"
	"repro/internal/represent"
	"repro/internal/selector"
	"repro/internal/sparse"
	"repro/internal/spmv"
	"repro/internal/synthgen"
)

// benchOptions is an extra-small experiment scale so each benchmark
// iteration completes in seconds.
func benchOptions() experiments.Options {
	o := experiments.Quick()
	o.Count = 160
	o.Folds = 2
	o.Epochs = 6
	o.RetrainSizes = []int{0, 40, 80}
	o.Steps = 40
	return o
}

// --- one benchmark per table / figure ---

func BenchmarkTable2CPUPredictionQuality(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable2(o, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3GPUPredictionQuality(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable3(o, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8SpeedupDistribution(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig8(o, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9ModelMigration(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig9(o, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11LateVsEarlyMerging(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig11(o, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverheadPrediction(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunOverhead(o, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- SpMV kernels, one per format, serial and parallel ---

func benchMatrix() *sparse.COO {
	return synthgen.Random(4096, 4096, 4096*16, 1)
}

func BenchmarkSpMV(b *testing.B) {
	c := benchMatrix()
	rows, cols := c.Dims()
	x := make([]float64, cols)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, rows)
	for _, f := range sparse.AllFormats() {
		m := sparse.MustConvert(c, f)
		k, err := spmv.ForFormat(f)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(f.String()+"/serial", func(b *testing.B) {
			b.SetBytes(m.Bytes())
			for i := 0; i < b.N; i++ {
				k.Mul(y, m, x, 1)
			}
		})
		b.Run(f.String()+"/parallel", func(b *testing.B) {
			b.SetBytes(m.Bytes())
			for i := 0; i < b.N; i++ {
				k.Mul(y, m, x, 0)
			}
		})
	}
}

func BenchmarkSpMVBandedDIAvsCSR(b *testing.B) {
	c := synthgen.Banded(8192, 2, 1.0, 2)
	rows, cols := c.Dims()
	x := make([]float64, cols)
	y := make([]float64, rows)
	dia := sparse.NewDIA(c)
	csr := sparse.NewCSR(c)
	b.Run("DIA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spmv.Mul(y, dia, x, 0)
		}
	})
	b.Run("CSR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spmv.Mul(y, csr, x, 0)
		}
	})
}

// --- representations (Section 4) ---

func BenchmarkRepresent(b *testing.B) {
	c := benchMatrix()
	for _, kind := range represent.Kinds() {
		cfg := represent.Config{Kind: kind, Size: 128, Bins: 50}
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := represent.Normalize(c, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- format conversions (the §7.6 conversion overhead) ---

func BenchmarkConvert(b *testing.B) {
	c := benchMatrix()
	for _, f := range sparse.AllFormats() {
		b.Run(f.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sparse.MustConvert(c, f)
			}
		})
	}
}

// --- labelling throughput (Figure 3 step 1 substitute) ---

func BenchmarkLabelMatrix(b *testing.B) {
	lab := machine.NewLabeler(machine.XeonLike(), 1)
	c := benchMatrix()
	st := sparse.ComputeStats(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lab.Label(st, uint64(i))
	}
}

func BenchmarkComputeStats(b *testing.B) {
	c := benchMatrix()
	for i := 0; i < b.N; i++ {
		sparse.ComputeStats(c)
	}
}

// --- ablations (DESIGN.md §5) ---

// BenchmarkAblationTrainWorkers sweeps the data-parallel worker count
// for one training epoch.
func BenchmarkAblationTrainWorkers(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	cfg := selector.DefaultConfig(represent.KindHistogram, sparse.CPUFormats())
	cfg.Represent.Size, cfg.Represent.Bins = 16, 8
	samples := make([]nn.Sample, 96)
	for i := range samples {
		m := synthgen.Build(synthgen.SampleSpec(rng, 256))
		chans, err := represent.Normalize(m, cfg.Represent)
		if err != nil {
			b.Fatal(err)
		}
		samples[i] = nn.Sample{Inputs: chans, Label: i % 4}
	}
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(workerLabel(workers), func(b *testing.B) {
			s, err := selector.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			tr := nn.NewTrainer(s.Model, nn.NewAdam(cfg.LearningRate), cfg.BatchSize, 1)
			tr.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.TrainEpochCtx(context.Background(), samples)
			}
		})
	}
}

func workerLabel(w int) string {
	switch w {
	case 1:
		return "workers-1"
	case 2:
		return "workers-2"
	case 4:
		return "workers-4"
	default:
		return "workers-max"
	}
}

// BenchmarkAblationRepresentationSize sweeps histogram geometry (the
// §7.5 sensitivity to representation granularity).
func BenchmarkAblationRepresentationSize(b *testing.B) {
	c := benchMatrix()
	for _, size := range []int{16, 32, 64, 128} {
		cfg := represent.Config{Kind: represent.KindHistogram, Size: size, Bins: size / 2}
		b.Run(cfg.Kind.String()+"-"+itoa(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := represent.Normalize(c, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- NN primitives ---

func BenchmarkCNNInference(b *testing.B) {
	cfg := selector.DefaultConfig(represent.KindHistogram, sparse.CPUFormats())
	s, err := selector.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m := synthgen.Banded(2048, 3, 1.0, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Predict(m); err != nil {
			b.Fatal(err)
		}
	}
}
