package nn

import (
	"context"
	"math/rand"
)

// SampleSource feeds training epochs that cannot hold the corpus in
// memory. Each epoch opens a fresh ChunkStream; the epoch index lets
// the source vary chunk order deterministically (the selector's
// store-backed source shuffles shard order per epoch).
type SampleSource interface {
	Stream(epoch int) (ChunkStream, error)
}

// ChunkStream yields one epoch's samples chunk by chunk. Next returns
// (nil, nil) at end of epoch. The trainer drops each chunk before
// pulling the next and never writes to a sample, so it holds one chunk
// at a time; what else stays resident is the source's business (the
// selector's source keeps the codes samples of a frozen-tower model
// across epochs, up to a byte cap).
type ChunkStream interface {
	Next() ([]Sample, error)
}

// TrainEpochStreamCtx runs one epoch over a chunked sample stream,
// returning the mean per-sample loss. Shuffling is within-chunk (the
// source shuffles chunk order), seeded from (Seed, Epoch, chunk) so a
// resumed trainer replays the interrupted run exactly. Divergence and
// cancellation semantics match TrainEpochCtx: the error surfaces at a
// batch boundary and the epoch counter does not advance.
func (t *Trainer) TrainEpochStreamCtx(ctx context.Context, src SampleSource) (float64, error) {
	return t.trainEpoch(ctx, src, func(chunk int) int64 {
		return t.Seed*1_000_003 + int64(t.Epoch)*1_000_033 + int64(chunk) + 1
	})
}

// trainEpoch is the one batch loop behind both epoch functions: each
// chunk of src is shuffled by a generator seeded with seed(chunk index)
// and run through minibatch steps. An error or cancellation surfaces at
// a batch boundary with the mean loss so far, and the epoch counter
// advances only when the whole stream trained.
func (t *Trainer) trainEpoch(ctx context.Context, src SampleSource, seed func(chunk int) int64) (float64, error) {
	t.epochHits, t.epochSeen = 0, 0
	st, err := src.Stream(t.Epoch)
	if err != nil {
		return 0, err
	}
	total := 0.0
	seen := 0
	mean := func() float64 {
		if seen == 0 {
			return 0
		}
		return total / float64(seen)
	}
	for chunkIdx := 0; ; chunkIdx++ {
		if err := ctx.Err(); err != nil {
			return mean(), err
		}
		chunk, err := st.Next()
		if err != nil {
			return mean(), err
		}
		if chunk == nil {
			break
		}
		if len(chunk) == 0 {
			continue
		}
		order := rand.New(rand.NewSource(seed(chunkIdx))).Perm(len(chunk))
		for lo := 0; lo < len(order); lo += t.BatchSize {
			if err := ctx.Err(); err != nil {
				return mean(), err
			}
			hi := lo + t.BatchSize
			if hi > len(order) {
				hi = len(order)
			}
			batch := make([]Sample, hi-lo)
			for i, idx := range order[lo:hi] {
				batch[i] = chunk[idx]
			}
			loss, err := t.trainBatch(batch)
			if err != nil {
				return mean(), err
			}
			total += loss
			seen += len(batch)
		}
	}
	t.Epoch++
	return mean(), nil
}

// SliceSource adapts an in-memory sample slice to SampleSource — one
// chunk per epoch; useful in tests and for small corpora flowing
// through streaming entry points.
type SliceSource []Sample

// Stream implements SampleSource.
func (s SliceSource) Stream(int) (ChunkStream, error) {
	return &sliceStream{samples: s}, nil
}

type sliceStream struct {
	samples []Sample
	done    bool
}

func (st *sliceStream) Next() ([]Sample, error) {
	if st.done || len(st.samples) == 0 {
		return nil, nil
	}
	st.done = true
	return st.samples, nil
}
