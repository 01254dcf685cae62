package selector

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/internal/machine"
	"repro/internal/nn"
	"repro/internal/represent"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// BenchmarkPredict is the whole decision at the geometry that ships —
// DefaultConfig, what core.Train and the end-to-end benchmark's model
// use — on a 16k-nonzero matrix: representation written into the
// engine's arena, forward pass, probabilities gathered. Guarded by
// scripts/benchgate.
func BenchmarkPredict(b *testing.B) {
	m := synthgen.Random(2048, 2048, 2048*8, 1)
	for _, kind := range []represent.Kind{represent.KindBinary, represent.KindHistogram} {
		s, err := New(DefaultConfig(kind, sparse.CPUFormats()))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Predict(m); err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Predict(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainStreamTopEvolvement is the shepherd's retrain and the
// end-to-end benchmark's retrain_stream in miniature: a transferred
// model with frozen towers, 256 records in four chunks, five epochs on
// one worker — one encoding epoch and four on memoised codes. Guarded
// by scripts/benchgate.
func BenchmarkTrainStreamTopEvolvement(b *testing.B) {
	lab := machine.NewLabeler(machine.XeonLike(), 1)
	d := dataset.Generate(dataset.Config{Count: 256, Seed: 42, MaxN: 512}, lab)
	cfg := DefaultConfig(represent.KindBinary, sparse.CPUFormats())
	cfg.Epochs, cfg.Workers = 5, 1
	src, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cand, err := Transfer(src, TopEvolvement)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cand.TrainStreamCtx(context.Background(), DatasetShards(d, 64), nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*cfg.Epochs*len(d.Records))/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkTrainStreamFromScratch is one epoch in which every layer
// learns: a new model at the default Binary geometry trained for one
// epoch over 256 records in four chunks, on one worker — each sample
// represented, forward through the towers' Conv2D, MaxPool and ReLU
// and the head, and back-propagated through all of them. Guarded by
// scripts/benchgate.
func BenchmarkTrainStreamFromScratch(b *testing.B) {
	lab := machine.NewLabeler(machine.XeonLike(), 1)
	d := dataset.Generate(dataset.Config{Count: 256, Seed: 42, MaxN: 512}, lab)
	cfg := DefaultConfig(represent.KindBinary, sparse.CPUFormats())
	cfg.Epochs, cfg.Workers = 1, 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.TrainStreamCtx(context.Background(), DatasetShards(d, 64), nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(d.Records))/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkTrainStreamMemoised is the part of a top-evolvement retrain
// that repeats: one op is one head-only epoch over 400 memoised codes
// samples at the default Binary geometry (256→48→7, dropout on, Adam,
// batch 32), on one worker. The code memo is filled before the timer
// starts, so no shard is read and no tower runs. A codes sample
// allocates nothing (TestCodesSampleAllocatesNothing in internal/nn);
// allocs/op counts the per-chunk and per-batch bookkeeping. Guarded by
// scripts/benchgate.
func BenchmarkTrainStreamMemoised(b *testing.B) {
	lab := machine.NewLabeler(machine.XeonLike(), 1)
	d := dataset.Generate(dataset.Config{Count: 400, Seed: 42, MaxN: 512}, lab)
	cfg := DefaultConfig(represent.KindBinary, sparse.CPUFormats())
	cfg.Workers = 1
	src, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cand, err := Transfer(src, TopEvolvement)
	if err != nil {
		b.Fatal(err)
	}
	codes := newStoreSource(cand, DatasetShards(d, 64))
	st, err := codes.Stream(0)
	if err != nil {
		b.Fatal(err)
	}
	for {
		chunk, err := st.Next()
		if err != nil {
			b.Fatal(err)
		}
		if chunk == nil {
			break
		}
	}
	tr := nn.NewTrainer(cand.Model, nn.NewAdam(cfg.LearningRate), cfg.BatchSize, cfg.Seed)
	tr.Workers = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.TrainEpochStreamCtx(context.Background(), codes); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(d.Records))/b.Elapsed().Seconds(), "samples/s")
}
