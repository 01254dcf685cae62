// Package core is the end-to-end facade of the CNN-based sparse-matrix
// format selector — the library equivalent of the paper artifact's
// spmv_model.py train / test / predict modes. It wires the Figure 3
// pipeline together: label collection on a (simulated or wall-clock)
// platform, matrix normalisation, CNN construction and training, and
// best-format prediction for new matrices.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"

	"repro/internal/dataset"
	"repro/internal/machine"
	"repro/internal/nn"
	"repro/internal/represent"
	"repro/internal/selector"
	"repro/internal/sparse"
)

// Options configures an end-to-end training run.
type Options struct {
	// Platform names the target machine: "xeonlike", "a8like" or
	// "titanlike" (Table 1). The format selection set follows the
	// platform kind (Table 2 vs Table 3).
	Platform string
	// Count is the number of training matrices to generate and label.
	Count int
	// MaxN bounds the generated matrix dimension.
	MaxN int
	// Representation selects the input normalisation. The zero value is
	// represent.KindBinary — the scaled binary image, one tower — so
	// Train(Options{}) trains a Binary selector; the paper's best,
	// represent.KindHistogram, has to be asked for (cmd/train's -rep
	// flag defaults to it, and every example sets it).
	Representation represent.Kind
	// RepSize / RepBins fix the representation geometry (defaults
	// 32×16; the paper uses 128×50).
	RepSize, RepBins int
	// Epochs / Workers / Seed control training.
	Epochs  int
	Workers int
	Seed    int64
	// TestFraction is held out for evaluation (default 0.2).
	TestFraction float64
	// WallClock labels matrices by timing the real Go SpMV kernels on
	// the host instead of the platform cost model. Slower but
	// measurement-grounded.
	WallClock bool
	// DatasetPath, when non-empty, trains from a pre-built corpus store
	// (a gendata -store directory) instead of generating one, streaming
	// it shard by shard. The corpus must be labeled for Platform with
	// its format set — dataset.ErrMismatch otherwise: labels are
	// architecture-dependent, so a GPU corpus silently training a CPU
	// selector is a correctness bug, not a convenience. Count, MaxN and
	// WallClock are ignored on this path.
	DatasetPath string
	// CheckpointDir, when non-empty, makes training write periodic
	// checkpoints there (and a best-by-loss copy) so an interrupted run
	// can be continued with Resume.
	CheckpointDir string
	// CheckpointEvery is the checkpoint period in epochs (default 5).
	CheckpointEvery int
	// Resume continues training from the newest checkpoint in
	// CheckpointDir instead of starting fresh. The corpus is regenerated
	// deterministically, so Platform, Count, MaxN and Seed must match
	// the interrupted run. When the directory holds no checkpoint yet,
	// the run starts from scratch.
	Resume bool
	// EpochHook, when set, observes every successfully completed
	// training epoch with its statistics — the attachment point for
	// training telemetry (cmd/train wires it to the obs layer). It runs
	// on the training goroutine.
	EpochHook func(nn.EpochStats)
	// Log receives progress lines (nil = silent).
	Log io.Writer
}

func (o *Options) defaults() {
	if o.Platform == "" {
		o.Platform = "xeonlike"
	}
	if o.Count <= 0 {
		o.Count = 600
	}
	if o.MaxN <= 0 {
		o.MaxN = 2048
	}
	if o.RepSize <= 0 {
		o.RepSize = 32
	}
	if o.RepBins <= 0 {
		o.RepBins = 16
	}
	if o.Epochs <= 0 {
		o.Epochs = 40
	}
	if o.TestFraction <= 0 || o.TestFraction >= 1 {
		o.TestFraction = 0.2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 5
	}
}

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Result is a trained selector with its corpus and held-out evaluation.
type Result struct {
	Selector *selector.Selector
	Dataset  *dataset.Dataset
	Train    []int
	Test     []int
	Metrics  *selector.Metrics
}

// Train runs the full Figure 3 construction pipeline: generate and
// label a corpus for the platform, train the CNN selector, and evaluate
// it on a held-out split.
func Train(o Options) (*Result, error) {
	return TrainCtx(context.Background(), o)
}

// TrainCtx is Train with cancellation and fault tolerance: the run
// checkpoints to o.CheckpointDir (if set), resumes an interrupted run
// when o.Resume is set, and on ctx cancellation flushes a final
// checkpoint and returns the partial Result (selector, corpus and
// split, no held-out metrics) alongside the context error.
func TrainCtx(ctx context.Context, o Options) (*Result, error) {
	o.defaults()
	p, err := machine.PlatformByName(o.Platform)
	if err != nil {
		return nil, err
	}
	lab := machine.NewLabeler(p, o.Seed)
	if o.DatasetPath != "" {
		return trainStoreCtx(ctx, o, lab)
	}
	o.logf("step 1: generating and labelling %d matrices on %s", o.Count, p)
	d, _, err := dataset.GenerateCtx(ctx, dataset.Config{Count: o.Count, Seed: o.Seed, MaxN: o.MaxN, Workers: o.Workers}, lab)
	if err != nil {
		return nil, err
	}
	if o.WallClock {
		o.logf("        relabelling with wall-clock kernel timings")
		if err := relabelWallClock(ctx, d, o.Workers); err != nil {
			return nil, err
		}
	}
	counts := d.ClassCounts()
	for i, f := range d.Formats {
		o.logf("        %-5s %d", f, counts[i])
	}

	s, resume, cp, err := o.resumeOrNew(d.Formats)
	if err != nil {
		return nil, err
	}

	trainIdx, testIdx := d.Split(o.TestFraction, o.Seed+7)
	o.logf("step 4: training on %d matrices (%d epochs)", len(trainIdx), o.Epochs)
	samples, err := s.Samples(d, trainIdx)
	if err != nil {
		return nil, err
	}
	losses, err := s.TrainSamplesCtx(ctx, samples, cp, resume)
	partial := &Result{Selector: s, Dataset: d, Train: trainIdx, Test: testIdx}
	if res, err := o.trained(partial, losses, err); err != nil {
		return res, err
	}
	m, err := s.Evaluate(d, testIdx)
	if err != nil {
		return nil, err
	}
	o.logf("held-out accuracy: %.1f%%", m.Accuracy()*100)
	partial.Metrics = m
	return partial, nil
}

// trainStoreCtx is TrainCtx for a pre-built corpus store: training
// streams one shard at a time (peak memory is bounded by shard size,
// not corpus size), and evaluation runs over held-out shards that the
// training stream never sees. Result.Dataset is nil on this path —
// the corpus was never materialised.
func trainStoreCtx(ctx context.Context, o Options, lab *machine.Labeler) (*Result, error) {
	o.logf("step 1: opening sharded corpus store %s", o.DatasetPath)
	store, report, err := dataset.OpenValidatedStore(o.DatasetPath, lab)
	if err != nil {
		return nil, err
	}
	if report != nil {
		o.logf("        store needed salvage: %d shard(s) repaired, %d record(s) dropped (see %s/salvage.json)",
			len(report.Shards), len(report.DroppedRecords), o.DatasetPath)
	}
	o.logf("        %d records in %d shards (%d duplicate appends skipped)",
		store.NumRecords(), store.NumShards(), store.Dupes())

	s, resume, cp, err := o.resumeOrNew(store.Formats())
	if err != nil {
		return nil, err
	}

	trainShards, testShards := SplitShards(store.NumShards(), o.TestFraction, o.Seed+7)
	o.logf("step 4: streaming %d shards for training, %d held out (%d epochs)",
		len(trainShards), len(testShards), o.Epochs)
	losses, err := s.TrainStreamCtx(ctx, &ShardSubset{Store: store, Idx: trainShards}, cp, resume)
	partial := &Result{Selector: s}
	if res, err := o.trained(partial, losses, err); err != nil {
		return res, err
	}
	if len(testShards) == 0 {
		o.logf("store has a single shard; no held-out shard to evaluate")
		return partial, nil
	}
	m, err := s.EvaluateStream(&ShardSubset{Store: store, Idx: testShards})
	if err != nil {
		return nil, err
	}
	o.logf("held-out accuracy: %.1f%%", m.Accuracy()*100)
	partial.Metrics = m
	return partial, nil
}

// resumeOrNew returns the selector a run trains over formats and the
// checkpoint it resumes from: the newest one in o.CheckpointDir when
// o.Resume asks for it and one exists, else a fresh selector and none.
// It also opens the run's checkpointer (nil without a CheckpointDir)
// and attaches o.EpochHook.
func (o *Options) resumeOrNew(formats []sparse.Format) (*selector.Selector, *nn.Checkpoint, *nn.Checkpointer, error) {
	var (
		s      *selector.Selector
		resume *nn.Checkpoint
		err    error
	)
	if o.Resume && o.CheckpointDir != "" {
		s, resume, err = selector.LoadCheckpoint(o.CheckpointDir)
		switch {
		case err == nil:
			o.logf("resuming from %s at epoch %d (loss %.3f)", o.CheckpointDir, resume.Epoch, resume.Loss)
			// The target epoch count and parallelism come from this
			// invocation; everything else (architecture, representation,
			// hyperparameters) is restored from the checkpoint.
			s.Cfg.Epochs = o.Epochs
			s.Cfg.Workers = o.Workers
		case errors.Is(err, nn.ErrNoCheckpoint):
			o.logf("no checkpoint in %s; starting fresh", o.CheckpointDir)
		default:
			return nil, nil, nil, fmt.Errorf("core: resuming from %s: %w", o.CheckpointDir, err)
		}
	}
	if s == nil {
		cfg := selector.DefaultConfig(o.Representation, formats)
		cfg.Represent.Size = o.RepSize
		cfg.Represent.Bins = o.RepBins
		cfg.Epochs = o.Epochs
		cfg.Workers = o.Workers
		cfg.Seed = o.Seed
		o.logf("step 2+3: %s representation (%dx%d), late-merging CNN", cfg.Represent.Kind, o.RepSize, o.RepBins)
		if s, err = selector.New(cfg); err != nil {
			return nil, nil, nil, err
		}
	}
	var cp *nn.Checkpointer
	if o.CheckpointDir != "" {
		if cp, err = nn.NewCheckpointer(o.CheckpointDir, o.CheckpointEvery, 3); err != nil {
			return nil, nil, nil, err
		}
	}
	if o.EpochHook != nil {
		s.SetEpochHook(o.EpochHook)
	}
	return s, resume, cp, nil
}

// trained logs how training ended: the ends of the loss curve, or
// where an interrupted run stopped. A run that did not finish ends
// with what trained returns: an interrupted one its partial result
// (the selector and what is known of the split, no held-out metrics)
// with the context error, any other failure no result.
func (o *Options) trained(partial *Result, losses []float64, err error) (*Result, error) {
	switch {
	case err == nil:
		if len(losses) > 0 {
			o.logf("        loss %.3f -> %.3f", losses[0], losses[len(losses)-1])
		}
		return partial, nil
	case !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
		return nil, err
	case o.CheckpointDir != "":
		o.logf("training interrupted after %d epochs this run; checkpoint flushed to %s", len(losses), o.CheckpointDir)
	default:
		o.logf("training interrupted after %d epochs this run", len(losses))
	}
	return partial, err
}

// SplitShards partitions shard positions into train and held-out sets
// with a seeded shuffle — the shard-granular analogue of
// Dataset.Split. A single-shard store yields no held-out set.
func SplitShards(n int, testFraction float64, seed int64) (train, test []int) {
	if n <= 0 {
		return nil, nil
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	nTest := int(float64(n)*testFraction + 0.5)
	if nTest >= n {
		nTest = n - 1
	}
	if nTest == 0 && n > 1 && testFraction > 0 {
		nTest = 1
	}
	test = append([]int(nil), perm[:nTest]...)
	train = append([]int(nil), perm[nTest:]...)
	sort.Ints(train)
	sort.Ints(test)
	return train, test
}

// ShardSubset restricts a corpus store to a subset of its shard
// positions — the held-out-split view used by streaming training and
// evaluation. It satisfies selector.ShardStream.
type ShardSubset struct {
	Store *dataset.CorpusStore
	Idx   []int
}

// NumShards implements selector.ShardStream.
func (v *ShardSubset) NumShards() int { return len(v.Idx) }

// Shard implements selector.ShardStream.
func (v *ShardSubset) Shard(i int) (*dataset.Dataset, error) { return v.Store.Shard(v.Idx[i]) }

// relabelWallClock replaces each record's label and times with wall-
// clock measurements of the Go kernels, honouring cancellation between
// matrices.
func relabelWallClock(ctx context.Context, d *dataset.Dataset, workers int) error {
	for i := range d.Records {
		r := &d.Records[i]
		label, times, err := machine.MeasureLabelCtx(ctx, r.Matrix(), d.Formats, machine.MeasureOpts{Workers: workers, Repeats: 3})
		if err != nil {
			return err
		}
		r.Label = label
		r.Times = times
	}
	return nil
}

// Predict loads a MatrixMarket file and returns the model's chosen
// format with per-format probabilities.
func Predict(s *selector.Selector, mtxPath string) (sparse.Format, map[sparse.Format]float64, error) {
	m, err := sparse.ReadMatrixMarketFile(mtxPath)
	if err != nil {
		return 0, nil, err
	}
	return s.Predict(m)
}

// BestFormat converts m to the selector's predicted best format, ready
// for repeated SpMV use.
func BestFormat(s *selector.Selector, m *sparse.COO) (sparse.Matrix, sparse.Format, error) {
	f, _, err := s.Predict(m)
	if err != nil {
		return nil, 0, err
	}
	out, err := sparse.Convert(m, f)
	if err != nil {
		return nil, 0, err
	}
	return out, f, nil
}
