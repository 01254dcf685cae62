package selector

import (
	"context"
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/represent"
)

// The streaming training/evaluation paths must reproduce the in-memory
// semantics while touching only one shard at a time.

func TestDatasetShardsChunking(t *testing.T) {
	d := cpuDataset(t, 25)
	shards := DatasetShards(d, 10)
	if shards.NumShards() != 3 {
		t.Fatalf("25 records at chunk 10 → %d shards, want 3", shards.NumShards())
	}
	total := 0
	for i := 0; i < shards.NumShards(); i++ {
		c, err := shards.Shard(i)
		if err != nil {
			t.Fatal(err)
		}
		total += len(c.Records)
		if c.Platform != d.Platform {
			t.Fatalf("chunk %d lost platform", i)
		}
	}
	if total != 25 {
		t.Fatalf("chunks cover %d records, want 25", total)
	}
	if _, err := shards.Shard(3); err == nil {
		t.Fatal("out-of-range chunk accepted")
	}
}

func TestTrainStreamMatchesEvaluate(t *testing.T) {
	d := cpuDataset(t, 40)
	dir := t.TempDir()
	if _, err := dataset.WriteStore(dir, d, 8); err != nil {
		t.Fatal(err)
	}
	store, rep, err := dataset.OpenStore(dir)
	if err != nil || rep != nil {
		t.Fatalf("store: rep=%v err=%v", rep, err)
	}

	cfg := fastConfig(represent.KindHistogram)
	cfg.Epochs = 6
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	losses, err := s.TrainStreamCtx(context.Background(), store, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != cfg.Epochs {
		t.Fatalf("trained %d epochs, want %d", len(losses), cfg.Epochs)
	}

	// Streamed evaluation must agree exactly with the in-memory path:
	// same model, same records, same metrics.
	streamed, err := s.EvaluateStream(store)
	if err != nil {
		t.Fatal(err)
	}
	inMem, err := s.Evaluate(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Total() != inMem.Total() || streamed.Accuracy() != inMem.Accuracy() {
		t.Fatalf("streamed eval %d/%f, in-memory %d/%f",
			streamed.Total(), streamed.Accuracy(), inMem.Total(), inMem.Accuracy())
	}
}

// countingShards counts the Shard calls each shard receives.
type countingShards struct {
	ShardStream
	calls []int
}

func newCountingShards(s ShardStream) *countingShards {
	return &countingShards{ShardStream: s, calls: make([]int, s.NumShards())}
}

func (c *countingShards) Shard(i int) (*dataset.Dataset, error) {
	c.calls[i]++
	return c.ShardStream.Shard(i)
}

// frozenCandidate is a top-evolvement transfer of a perturbed model,
// dropout off so that two runs in one process can be compared bit for
// bit (see TestTopEvolvementGoldenBits).
func frozenCandidate(t *testing.T, epochs int) *Selector {
	t.Helper()
	cfg := fastConfig(represent.KindHistogram)
	cfg.Epochs, cfg.DropoutRate, cfg.Workers = epochs, 0, 2
	// Decay fires at a fraction of the target epoch count, which a
	// resumed leg and its reference would place differently.
	cfg.LRDecayAt = 0
	cand, err := Transfer(goldenSelector(t, cfg), TopEvolvement)
	if err != nil {
		t.Fatal(err)
	}
	return cand
}

// Frozen towers: the store is asked for each training shard once per
// TrainStreamCtx call, however many epochs run; every later epoch is
// answered from the code memo. Unfrozen: once per epoch, as ever.
func TestTrainStreamShardReads(t *testing.T) {
	d := cpuDataset(t, 40)
	const epochs = 4
	for _, frozen := range []bool{true, false} {
		s := frozenCandidate(t, epochs)
		s.Model.FreezeTowers(frozen)
		shards := newCountingShards(DatasetShards(d, 8))
		if _, err := s.TrainStreamCtx(context.Background(), shards, nil, nil); err != nil {
			t.Fatal(err)
		}
		want := epochs
		if frozen {
			want = 1
		}
		for i, n := range shards.calls {
			if n != want {
				t.Errorf("frozen=%v: shard %d read %d times over %d epochs, want %d", frozen, i, n, epochs, want)
			}
		}
	}
}

// The code memo changes where the head's inputs come from, never what
// they are: a run whose memo holds one shard only (the rest re-encoded
// every epoch), and a run cancelled after its second epoch and resumed
// from the checkpoint with an empty memo, both end bit-identical to the
// uninterrupted, fully memoised run.
func TestTrainStreamCodeMemoBitIdentical(t *testing.T) {
	d := cpuDataset(t, 40)
	const epochs, shardSize = 5, 8
	ref := frozenCandidate(t, epochs)
	if _, err := ref.TrainStreamCtx(context.Background(), DatasetShards(d, shardSize), nil, nil); err != nil {
		t.Fatal(err)
	}
	want := weightBits(ref.Model.Params())

	// The cap forced down to one shard's codes.
	capped := frozenCandidate(t, epochs)
	shards := newCountingShards(DatasetShards(d, shardSize))
	src := newStoreSource(capped, shards)
	src.memoLeft = shardSize * 8 * capped.Model.Head[0].(*nn.Dense).In
	if _, err := capped.train(nil, nil, func(tr *nn.Trainer, opts nn.RunOpts) ([]float64, error) {
		return tr.RunStream(context.Background(), src, opts)
	}); err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(weightBits(capped.Model.Params()), want) {
		t.Error("a one-shard code memo changed the trained weights")
	}
	once, every := 0, 0
	for _, n := range shards.calls {
		switch n {
		case 1:
			once++
		case epochs:
			every++
		}
	}
	if once != 1 || every != len(shards.calls)-1 {
		t.Errorf("one-shard memo: shard reads %v, want one shard read once and the rest %d times", shards.calls, epochs)
	}

	// Cancelled from the epoch hook once epoch 2 has completed, then
	// resumed from the checkpoint directory.
	dir := t.TempDir()
	cp, err := nn.NewCheckpointer(dir, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	first := frozenCandidate(t, epochs)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first.SetEpochHook(func(e nn.EpochStats) {
		if e.Epoch == 2 {
			cancel()
		}
	})
	if _, err := first.TrainStreamCtx(ctx, DatasetShards(d, shardSize), cp, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	resumed, ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != 2 {
		t.Fatalf("checkpoint at epoch %d, want 2", ck.Epoch)
	}
	if !resumed.Model.TowersFrozen() {
		t.Fatal("the checkpoint lost the frozen flags: a resumed retrain would leave the codes path")
	}
	resumed.Cfg.Workers = 2
	shards = newCountingShards(DatasetShards(d, shardSize))
	if _, err := resumed.TrainStreamCtx(context.Background(), shards, nil, ck); err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(weightBits(resumed.Model.Params()), want) {
		t.Error("cancelled after epoch 2 and resumed: weights differ from the uninterrupted run")
	}
	for i, n := range shards.calls {
		if n != 1 {
			t.Errorf("resumed run read shard %d %d times over its 3 epochs, want 1", i, n)
		}
	}
}
