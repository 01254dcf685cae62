package selector

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/nn"
)

// ShardStream is the shard-granular corpus access the streaming
// training and evaluation paths need — satisfied by
// *dataset.CorpusStore. Peak memory on these paths is one shard's
// records plus its normalised samples, never the whole corpus; training
// a model whose towers are frozen adds the code memo (see storeSource).
type ShardStream interface {
	NumShards() int
	Shard(i int) (*dataset.Dataset, error)
}

// codeMemoBytes caps the codes one training call keeps across epochs.
// Codes are featSize × 8 B per record — 2 KB at the default Binary
// geometry, so the cap is some 32k records of it; a corpus past the cap
// trains all the same, re-encoding the shards that did not fit.
const codeMemoBytes = 64 << 20

// storeSource adapts a ShardStream to nn.SampleSource: each epoch
// visits every shard once in an epoch-seeded shuffled order, and each
// shard is normalised into samples only while it is the active chunk.
//
// When the model's towers are frozen the chunk is the shard's CNN codes
// (Selector.encodeFrozen), and codes outlive the chunk: memo[i] keeps
// shard i's from its first visit, while memoLeft bytes allow, and later
// epochs are answered from it before the store is asked for the shard —
// no shard read, no matrix rebuilt, no normalisation, no convolution.
// The memo lives as long as the source, which is one training call.
type storeSource struct {
	sel      *Selector
	store    ShardStream
	memo     [][]nn.Sample // nil unless the towers are frozen
	memoLeft int
}

func newStoreSource(sel *Selector, store ShardStream) *storeSource {
	src := &storeSource{sel: sel, store: store}
	if sel.Model.TowersFrozen() {
		src.memo, src.memoLeft = make([][]nn.Sample, store.NumShards()), codeMemoBytes
	}
	return src
}

// Stream implements nn.SampleSource.
func (src *storeSource) Stream(epoch int) (nn.ChunkStream, error) {
	n := src.store.NumShards()
	rng := rand.New(rand.NewSource(src.sel.Cfg.Seed*7_368_787 + int64(epoch) + 1))
	return &storeStream{src: src, order: rng.Perm(n)}, nil
}

// chunk returns shard i as the samples the trainer is fed.
func (src *storeSource) chunk(i int) ([]nn.Sample, error) {
	if src.memo != nil && src.memo[i] != nil {
		return src.memo[i], nil
	}
	d, err := src.store.Shard(i)
	if err != nil {
		return nil, fmt.Errorf("selector: streaming shard %d: %w", i, err)
	}
	samples, err := src.sel.Samples(d, nil)
	if err != nil {
		return nil, err
	}
	if samples, err = src.sel.encodeFrozen(samples); err != nil {
		return nil, err
	}
	if src.memo != nil {
		size := 0
		for _, sm := range samples {
			size += 8 * sm.Codes.Size()
		}
		if size <= src.memoLeft {
			src.memo[i], src.memoLeft = samples, src.memoLeft-size
		}
	}
	return samples, nil
}

type storeStream struct {
	src   *storeSource
	order []int
	pos   int
}

// Next skips empty shards, so they do not count as chunks.
func (st *storeStream) Next() ([]nn.Sample, error) {
	for st.pos < len(st.order) {
		i := st.order[st.pos]
		st.pos++
		chunk, err := st.src.chunk(i)
		if err != nil || len(chunk) > 0 {
			return chunk, err
		}
	}
	return nil, nil
}

// DatasetShards views an in-memory dataset as a ShardStream of
// fixed-size chunks, so consumers holding a modest corpus (the
// feedback collector's online records) can reuse the streaming
// training path and keep normalised-sample memory bounded by the
// chunk, not the corpus.
func DatasetShards(d *dataset.Dataset, size int) ShardStream {
	if size <= 0 {
		size = 256
	}
	return &dsShards{d: d, size: size}
}

type dsShards struct {
	d    *dataset.Dataset
	size int
}

func (v *dsShards) NumShards() int {
	return (len(v.d.Records) + v.size - 1) / v.size
}

func (v *dsShards) Shard(i int) (*dataset.Dataset, error) {
	lo := i * v.size
	hi := lo + v.size
	if lo < 0 || lo >= len(v.d.Records) {
		return nil, fmt.Errorf("selector: dataset shard %d out of range", i)
	}
	if hi > len(v.d.Records) {
		hi = len(v.d.Records)
	}
	return &dataset.Dataset{Platform: v.d.Platform, Formats: v.d.Formats, Records: v.d.Records[lo:hi]}, nil
}

// TrainStreamCtx fits the selector over a sharded corpus store without
// materialising it: the streaming twin of TrainSamplesCtx, with the
// same fault tolerance (divergence rollback + LR backoff via
// nn.RunStream), checkpointing, and exact resume.
func (s *Selector) TrainStreamCtx(ctx context.Context, store ShardStream, cp *nn.Checkpointer, resume *nn.Checkpoint) ([]float64, error) {
	return s.train(cp, resume, func(tr *nn.Trainer, opts nn.RunOpts) ([]float64, error) {
		return tr.RunStream(ctx, newStoreSource(s, store), opts)
	})
}

// EvaluateStream computes the Table 2/3 metrics over a sharded store,
// one shard resident at a time: Evaluate on each shard, merged.
func (s *Selector) EvaluateStream(store ShardStream) (*Metrics, error) {
	m := NewMetrics(s.Cfg.Formats)
	for i := 0; i < store.NumShards(); i++ {
		d, err := store.Shard(i)
		if err != nil {
			return nil, fmt.Errorf("selector: evaluating shard %d: %w", i, err)
		}
		sm, err := s.Evaluate(d, nil)
		if err != nil {
			return nil, err
		}
		m.Merge(sm)
	}
	return m, nil
}
