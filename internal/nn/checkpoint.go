package nn

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// ErrDiverged reports that training kept producing non-finite losses or
// exploding gradients after exhausting the checkpoint-restore +
// learning-rate-backoff retry budget.
var ErrDiverged = errors.New("nn: training diverged; retry budget exhausted")

// ErrNoCheckpoint reports that a checkpoint directory holds no
// loadable checkpoint.
var ErrNoCheckpoint = errors.New("nn: no checkpoint found")

// Checkpoint is one recoverable training state: enough to rebuild the
// model standalone (full Save blob) and to continue training exactly
// where it stopped (optimiser state, epoch counter, learning rate).
// Extra carries opaque caller metadata — the selector stores its config
// header there so a checkpoint alone can reconstruct the selector.
type Checkpoint struct {
	Epoch int
	Loss  float64 // mean loss of the last completed epoch (NaN before any)
	LR    float64
	Model []byte // nn.Save blob
	Opt   OptState
	Extra []byte
}

// Checkpointer manages a directory of epoch checkpoints: it snapshots
// every Every epochs, keeps the newest Keep epoch files, and maintains
// best.ckpt, the lowest-loss snapshot seen (never pruned).
//
// Layout: <dir>/ckpt-<epoch>.ckpt plus <dir>/best.ckpt. All files are
// enveloped (versioned + CRC) and written atomically.
type Checkpointer struct {
	Dir   string
	Every int // snapshot period in epochs (<=0: every epoch)
	Keep  int // epoch files retained (<=0: 3)

	bestLoss float64
	epochs   []int // saved epoch numbers, ascending
}

// NewCheckpointer opens (creating if needed) a checkpoint directory and
// adopts any checkpoints already in it, so retention and best-tracking
// continue across restarts.
func NewCheckpointer(dir string, every, keep int) (*Checkpointer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("nn: checkpoint dir: %w", err)
	}
	c := &Checkpointer{Dir: dir, Every: every, Keep: keep, bestLoss: math.Inf(1)}
	epochs, err := checkpointEpochs(dir)
	if err != nil {
		return nil, err
	}
	c.epochs = epochs
	if best, err := LoadCheckpointFile(filepath.Join(dir, "best.ckpt")); err == nil && !math.IsNaN(best.Loss) {
		c.bestLoss = best.Loss
	}
	return c, nil
}

// ShouldSave reports whether epoch (a just-completed epoch count) is on
// the snapshot period.
func (c *Checkpointer) ShouldSave(epoch int) bool {
	every := c.Every
	if every <= 0 {
		every = 1
	}
	return epoch > 0 && epoch%every == 0
}

// Save writes ck as ckpt-<epoch>.ckpt, prunes beyond the retention
// window, and refreshes best.ckpt when the loss improves.
func (c *Checkpointer) Save(ck *Checkpoint) error {
	payload, err := encodeCheckpoint(ck)
	if err != nil {
		return err
	}
	path := filepath.Join(c.Dir, fmt.Sprintf("ckpt-%06d.ckpt", ck.Epoch))
	if err := WriteEnvelopeFile(path, EnvelopeCheckpoint, payload); err != nil {
		return err
	}
	c.noteSaved(ck.Epoch)
	if err := c.prune(); err != nil {
		return err
	}
	if !math.IsNaN(ck.Loss) && ck.Loss < c.bestLoss {
		c.bestLoss = ck.Loss
		if err := WriteEnvelopeFile(filepath.Join(c.Dir, "best.ckpt"), EnvelopeCheckpoint, payload); err != nil {
			return err
		}
	}
	return nil
}

func (c *Checkpointer) noteSaved(epoch int) {
	for _, e := range c.epochs {
		if e == epoch {
			return
		}
	}
	c.epochs = append(c.epochs, epoch)
	sort.Ints(c.epochs)
}

// prune deletes epoch files beyond the retention window (best.ckpt is
// a separate file and is never pruned).
func (c *Checkpointer) prune() error {
	keep := c.Keep
	if keep <= 0 {
		keep = 3
	}
	for len(c.epochs) > keep {
		old := c.epochs[0]
		c.epochs = c.epochs[1:]
		path := filepath.Join(c.Dir, fmt.Sprintf("ckpt-%06d.ckpt", old))
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("nn: pruning checkpoint: %w", err)
		}
	}
	return nil
}

func encodeCheckpoint(ck *Checkpoint) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		return nil, fmt.Errorf("nn: encoding checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// LoadCheckpointFile reads one checkpoint file, with the same typed
// corruption errors as LoadFile.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	payload, err := ReadEnvelopeFile(path, EnvelopeCheckpoint)
	if err != nil {
		return nil, err
	}
	var ck Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("nn: decoding checkpoint: %w", err)
	}
	return &ck, nil
}

// checkpointEpochs lists the epoch numbers with a ckpt file in dir. A
// missing directory is an empty list, not an error: resuming against a
// directory that no run has written yet just means starting fresh.
func checkpointEpochs(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("nn: reading checkpoint dir: %w", err)
	}
	var epochs []int
	for _, e := range entries {
		var epoch int
		if _, err := fmt.Sscanf(e.Name(), "ckpt-%06d.ckpt", &epoch); err == nil {
			epochs = append(epochs, epoch)
		}
	}
	sort.Ints(epochs)
	return epochs, nil
}

// LatestCheckpoint loads the newest (highest-epoch) checkpoint in dir,
// skipping unreadable or corrupt files so one damaged snapshot does not
// block recovery from an older good one. It returns ErrNoCheckpoint
// when nothing loadable exists.
func LatestCheckpoint(dir string) (*Checkpoint, error) {
	epochs, err := checkpointEpochs(dir)
	if err != nil {
		return nil, err
	}
	for i := len(epochs) - 1; i >= 0; i-- {
		path := filepath.Join(dir, fmt.Sprintf("ckpt-%06d.ckpt", epochs[i]))
		if ck, err := LoadCheckpointFile(path); err == nil {
			return ck, nil
		}
	}
	return nil, fmt.Errorf("%w in %s", ErrNoCheckpoint, dir)
}

// BestCheckpoint loads best.ckpt from dir.
func BestCheckpoint(dir string) (*Checkpoint, error) {
	ck, err := LoadCheckpointFile(filepath.Join(dir, "best.ckpt"))
	if err != nil {
		if os.IsNotExist(errors.Unwrap(err)) || errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w in %s", ErrNoCheckpoint, dir)
		}
		return nil, err
	}
	return ck, nil
}

// Checkpoint captures the trainer's current state (weights, optimiser
// state, epoch, learning rate) as a savable checkpoint.
func (t *Trainer) Checkpoint(loss float64, extra []byte) (*Checkpoint, error) {
	var buf bytes.Buffer
	if err := Save(&buf, t.Model); err != nil {
		return nil, err
	}
	return &Checkpoint{Epoch: t.Epoch, Loss: loss, LR: t.Opt.LR,
		Model: buf.Bytes(), Opt: t.Opt.StateSnapshot(t.Model.Params()), Extra: extra}, nil
}

// RestoreCheckpoint rewinds the trainer to a checkpoint: weights are
// copied in place (replicas keep sharing storage), optimiser state and
// learning rate are reinstalled, and the epoch counter is rewound so
// the next epoch replays the original shuffle order.
func (t *Trainer) RestoreCheckpoint(ck *Checkpoint) error {
	if err := RestoreWeights(t.Model, ck.Model); err != nil {
		return err
	}
	t.Opt.RestoreState(t.Model.Params(), ck.Opt)
	if ck.LR > 0 {
		t.Opt.LR = ck.LR
	}
	t.Epoch = ck.Epoch
	return nil
}

// memSnapshot is an in-memory "last good epoch" state used by the
// divergence-recovery loop; it is cheaper than a disk checkpoint and
// always available even when no Checkpointer is configured.
type memSnapshot struct {
	epoch   int
	lr      float64
	weights [][]float64
	opt     OptState
}

func (t *Trainer) snapshotState() *memSnapshot {
	params := t.Model.Params()
	s := &memSnapshot{epoch: t.Epoch, lr: t.Opt.LR}
	s.weights = make([][]float64, len(params))
	for i, p := range params {
		s.weights[i] = append([]float64(nil), p.Value.Data()...)
	}
	s.opt = t.Opt.StateSnapshot(params)
	return s
}

func (t *Trainer) restoreState(s *memSnapshot) {
	params := t.Model.Params()
	for i, p := range params {
		copy(p.Value.Data(), s.weights[i])
		p.Grad.Zero()
	}
	t.Opt.RestoreState(params, s.opt)
	if s.lr > 0 {
		t.Opt.LR = s.lr
	}
	t.Epoch = s.epoch
}

// RunOpts configures the fault-tolerant epoch loop.
type RunOpts struct {
	// Epochs is the target completed-epoch count (Run starts from the
	// trainer's current Epoch, so a resumed trainer finishes the
	// remainder).
	Epochs int
	// Checkpointer persists snapshots (nil: in-memory recovery only).
	Checkpointer *Checkpointer
	// Extra is stored verbatim in every checkpoint.
	Extra []byte
	// MaxRetries bounds consecutive divergence recoveries (default 3).
	MaxRetries int
	// LRBackoff scales the learning rate on each recovery (default 0.5).
	LRBackoff float64
	// PreEpoch, when set, runs before each epoch with the epoch index —
	// the hook for learning-rate schedules.
	PreEpoch func(epoch int)
	// PostEpoch, when set, runs after every successfully completed epoch
	// with that epoch's statistics — the hook for training telemetry
	// (JSONL emission, live metrics). It runs on the training goroutine;
	// slow hooks slow training.
	PostEpoch func(EpochStats)
}

// EpochStats is one completed epoch's telemetry, delivered through
// RunOpts.PostEpoch.
type EpochStats struct {
	// Epoch is the completed-epoch count (1-based).
	Epoch int
	// Loss is the mean per-sample training loss.
	Loss float64
	// Accuracy is the training accuracy over the epoch's forward passes.
	Accuracy float64
	// GradNorm is the gradient L2 norm of the epoch's last batch.
	GradNorm float64
	// LR is the learning rate the epoch ran with.
	LR float64
	// Retries is the cumulative divergence-recovery count for the run.
	Retries int
	// Duration is the epoch wall-clock (excluding checkpointing).
	Duration time.Duration
	// Checkpointed reports whether the epoch flushed a checkpoint, and
	// CheckpointDuration how long the flush took.
	Checkpointed       bool
	CheckpointDuration time.Duration
}

// Run is the fault-tolerant training loop. Each completed epoch becomes
// the new "last good" state (snapshotted in memory and, on the
// Checkpointer's period, on disk). A divergent epoch (ErrNonFinite) is
// rolled back to the last good state and retried with a backed-off
// learning rate, up to MaxRetries consecutive attempts, after which Run
// returns ErrDiverged with the finite last-good weights still in
// place. Cancellation flushes a final checkpoint at the last completed
// epoch boundary and returns the context error with the per-epoch
// losses so far — the clean partial result.
func (t *Trainer) Run(ctx context.Context, samples []Sample, o RunOpts) ([]float64, error) {
	return t.runLoop(ctx, o, func(ctx context.Context) (float64, error) {
		return t.TrainEpochCtx(ctx, samples)
	})
}

// RunStream is Run for corpora that do not fit in memory: each epoch
// pulls samples chunk by chunk from src (typically one corpus-store
// shard per chunk), so the trainer's own peak memory is the largest
// chunk, not the corpus; a source may keep more (see ChunkStream).
// Fault tolerance is identical to Run — divergence
// rolls the whole epoch back and retries with a backed-off learning
// rate, cancellation flushes a checkpoint at the last epoch boundary.
func (t *Trainer) RunStream(ctx context.Context, src SampleSource, o RunOpts) ([]float64, error) {
	return t.runLoop(ctx, o, func(ctx context.Context) (float64, error) {
		return t.TrainEpochStreamCtx(ctx, src)
	})
}

// runLoop is the shared fault-tolerant epoch loop behind Run and
// RunStream; epochFn runs one epoch and must leave t.Epoch incremented
// only on success.
func (t *Trainer) runLoop(ctx context.Context, o RunOpts, epochFn func(context.Context) (float64, error)) ([]float64, error) {
	if o.MaxRetries <= 0 {
		o.MaxRetries = 3
	}
	if o.LRBackoff <= 0 || o.LRBackoff >= 1 {
		o.LRBackoff = 0.5
	}
	cp := o.Checkpointer
	flush := func(loss float64) error {
		if cp == nil {
			return nil
		}
		ck, err := t.Checkpoint(loss, o.Extra)
		if err != nil {
			return err
		}
		return cp.Save(ck)
	}
	var losses []float64
	lastLoss := math.NaN()
	lastGood := t.snapshotState()
	retries := 0
	totalRetries := 0
	for t.Epoch < o.Epochs {
		if err := ctx.Err(); err != nil {
			if ferr := flush(lastLoss); ferr != nil {
				return losses, errors.Join(err, ferr)
			}
			return losses, err
		}
		if o.PreEpoch != nil {
			o.PreEpoch(t.Epoch)
		}
		epochStart := time.Now()
		loss, err := epochFn(ctx)
		switch {
		case err == nil:
			epochDur := time.Since(epochStart)
			losses = append(losses, loss)
			lastLoss = loss
			retries = 0
			lastGood = t.snapshotState()
			var ckpted bool
			var ckptDur time.Duration
			if cp != nil && cp.ShouldSave(t.Epoch) {
				ckptStart := time.Now()
				if ferr := flush(loss); ferr != nil {
					return losses, ferr
				}
				ckpted, ckptDur = true, time.Since(ckptStart)
			}
			if o.PostEpoch != nil {
				o.PostEpoch(EpochStats{
					Epoch:              t.Epoch,
					Loss:               loss,
					Accuracy:           t.EpochAccuracy(),
					GradNorm:           t.lastGradNorm,
					LR:                 t.Opt.LR,
					Retries:            totalRetries,
					Duration:           epochDur,
					Checkpointed:       ckpted,
					CheckpointDuration: ckptDur,
				})
			}
		case errors.Is(err, ErrNonFinite):
			retries++
			totalRetries++
			if retries > o.MaxRetries {
				// Leave the model at the last good state, not the
				// divergent one.
				t.restoreState(lastGood)
				return losses, fmt.Errorf("%w after %d retries: %v", ErrDiverged, o.MaxRetries, err)
			}
			backedOff := t.Opt.LR * o.LRBackoff
			t.restoreState(lastGood)
			t.Opt.LR = backedOff
		case ctx.Err() != nil:
			// Interrupted mid-epoch: rewind to the epoch boundary so the
			// flushed checkpoint is consistent and resume is exact.
			t.restoreState(lastGood)
			if ferr := flush(lastLoss); ferr != nil {
				return losses, errors.Join(err, ferr)
			}
			return losses, err
		default:
			return losses, err
		}
	}
	if err := flush(lastLoss); err != nil {
		return losses, err
	}
	return losses, nil
}
