package nn

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"repro/internal/robust"
	"repro/internal/tensor"
)

// ErrNonFinite reports a divergent training step: a NaN/Inf batch loss,
// a non-finite gradient, or (when MaxGradNorm is set) an exploding
// gradient. The offending optimiser step is never applied, so model
// weights stay finite; Run turns repeated occurrences into ErrDiverged.
var ErrNonFinite = errors.New("nn: non-finite loss or gradient")

// Sample is one training example: a class label plus either one input
// tensor per tower or, for a model whose towers are frozen, the codes
// Model.Codes made of them. A codes sample runs the head only, and
// back-propagation stops there; the tensor is read, never written, so
// one sample can serve every epoch.
type Sample struct {
	Inputs []*tensor.Tensor
	Codes  *tensor.Tensor
	Label  int
}

// Trainer runs minibatch gradient descent with goroutine data
// parallelism: each worker owns a model replica sharing parameter
// values; per-sample gradients accumulate in the replica and are summed
// into the master before the optimiser step — so a step sees the exact
// batch gradient regardless of worker count.
type Trainer struct {
	Model     *Model
	Opt       *Adam
	BatchSize int
	Workers   int // <=0 means GOMAXPROCS
	Rng       *rand.Rand

	// Seed is the base seed; each epoch's shuffle derives its own RNG
	// from Seed+Epoch so a trainer restored from a checkpoint replays
	// exactly the batch order the original run would have used.
	Seed int64
	// Epoch counts completed epochs. An epoch function increments it on
	// success; checkpoint restore rewinds it.
	Epoch int
	// MaxGradNorm, when > 0, rejects batches whose summed gradient L2
	// norm exceeds it (exploding gradients) with ErrNonFinite.
	// Non-finite losses and gradients are always rejected.
	MaxGradNorm float64
	// LossHook, when set, transforms each batch loss before the
	// divergence check — a test hook for injecting NaNs.
	LossHook func(loss float64) float64

	replicas []*Model

	// Telemetry accumulators, maintained by trainBatch/TrainEpochCtx and
	// reported through Run's PostEpoch hook. lastGradNorm is the L2 norm
	// of the most recent batch gradient; epochHits/epochSeen count
	// training-forward-pass argmax hits over the current epoch, giving a
	// free training-accuracy signal without a second inference sweep.
	lastGradNorm float64
	epochHits    int
	epochSeen    int
}

// NewTrainer builds a trainer with the given batch size.
func NewTrainer(m *Model, opt *Adam, batchSize int, seed int64) *Trainer {
	if batchSize < 1 {
		batchSize = 1
	}
	return &Trainer{Model: m, Opt: opt, BatchSize: batchSize, Seed: seed,
		Rng: rand.New(rand.NewSource(seed))}
}

func (t *Trainer) workers() int {
	w := t.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > t.BatchSize {
		w = t.BatchSize
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ensureReplicas (re)builds worker replicas. Replicas share parameter
// Values with the master, so they see optimiser updates immediately;
// they are rebuilt only when the worker count changes.
func (t *Trainer) ensureReplicas(n int) {
	if len(t.replicas) == n {
		return
	}
	t.replicas = make([]*Model, n)
	for i := range t.replicas {
		t.replicas[i] = t.Model.Replica()
	}
}

// trainBatch computes the batch gradient in parallel and applies one
// optimiser step. It returns the summed loss. A panic in any worker is
// recovered into the returned error; a non-finite loss or gradient (or
// a gradient above MaxGradNorm) returns ErrNonFinite with the step NOT
// applied, so weights are never poisoned by a divergent batch.
func (t *Trainer) trainBatch(batch []Sample) (float64, error) {
	w := t.workers()
	if w > len(batch) {
		w = len(batch)
	}
	if w < 1 {
		w = 1
	}
	t.ensureReplicas(w)
	t.Model.ZeroGrads()
	losses := make([]float64, w)
	hits := make([]int, w)
	chunk := (len(batch) + w - 1) / w
	if err := robust.Workers(w, func(wi int) error {
		lo := wi * chunk
		hi := lo + chunk
		if hi > len(batch) {
			hi = len(batch)
		}
		if lo >= hi {
			return nil
		}
		rep := t.replicas[wi]
		rep.ZeroGrads()
		var grad *tensor.Tensor // dL/dLogits, rewritten by every sample
		sum := 0.0
		for _, s := range batch[lo:hi] {
			logits := rep.forward(s, true)
			if grad == nil {
				grad = tensor.New(logits.Size())
			}
			sum += crossEntropyInto(grad.Data(), logits.Data(), s.Label)
			if logits.ArgMax() == s.Label {
				hits[wi]++
			}
			rep.Backward(grad)
		}
		losses[wi] = sum
		return nil
	}); err != nil {
		return 0, fmt.Errorf("nn: training batch: %w", err)
	}
	// Sum replica gradients into the master parameters.
	master := t.Model.Params()
	for wi := 0; wi < w; wi++ {
		rp := t.replicas[wi].Params()
		for i, p := range master {
			p.Grad.Add(rp[i].Grad)
		}
	}
	total := 0.0
	for _, l := range losses {
		total += l
	}
	if t.LossHook != nil {
		total = t.LossHook(total)
	}
	// Divergence gate: refuse to step on garbage.
	norm := gradNorm(master)
	t.lastGradNorm = norm
	if math.IsNaN(total) || math.IsInf(total, 0) || math.IsNaN(norm) || math.IsInf(norm, 0) {
		return total, fmt.Errorf("%w: batch loss %v, grad norm %v", ErrNonFinite, total, norm)
	}
	if t.MaxGradNorm > 0 && norm > t.MaxGradNorm {
		return total, fmt.Errorf("%w: grad norm %.4g exceeds limit %.4g", ErrNonFinite, norm, t.MaxGradNorm)
	}
	t.Opt.Step(master, len(batch))
	for _, h := range hits {
		t.epochHits += h
	}
	t.epochSeen += len(batch)
	return total, nil
}

// gradNorm computes the L2 norm of the gradient the optimiser applies:
// frozen parameters are skipped, as Adam.Step skips them, so the
// divergence gate and the grad_norm telemetry read the same whether a
// frozen tower was back-propagated into or bypassed by a codes sample.
func gradNorm(params []*Param) float64 {
	sum := 0.0
	for _, p := range params {
		if p.Frozen {
			continue
		}
		for _, g := range p.Grad.Data() {
			sum += g * g
		}
	}
	return math.Sqrt(sum)
}

// TrainEpochCtx shuffles the samples and runs them through minibatch
// steps, returning the mean per-sample loss. Cancellation is honoured
// at batch boundaries, leaving the model in a consistent (finite)
// state. The shuffle order depends only on (Seed, Epoch), so a resumed
// trainer reproduces the interrupted run.
func (t *Trainer) TrainEpochCtx(ctx context.Context, samples []Sample) (float64, error) {
	return t.trainEpoch(ctx, SliceSource(samples), func(int) int64 {
		return t.Seed*1_000_003 + int64(t.Epoch) + 1
	})
}

// EpochAccuracy returns the training accuracy accumulated over the
// current (or just-completed) epoch's forward passes — hits over
// samples seen, zero before any batch completes.
func (t *Trainer) EpochAccuracy() float64 {
	if t.epochSeen == 0 {
		return 0
	}
	return float64(t.epochHits) / float64(t.epochSeen)
}

// TrainSteps runs exactly n minibatch steps (sampling batches with
// replacement) and returns the per-step mean losses — the loss curves
// of Figure 11. It stops early (returning the losses so far) on worker
// failure or divergence.
func (t *Trainer) TrainSteps(samples []Sample, n int) ([]float64, error) {
	losses := make([]float64, 0, n)
	for s := 0; s < n; s++ {
		batch := make([]Sample, 0, t.BatchSize)
		for i := 0; i < t.BatchSize; i++ {
			batch = append(batch, samples[t.Rng.Intn(len(samples))])
		}
		loss, err := t.trainBatch(batch)
		if err != nil {
			return losses, err
		}
		losses = append(losses, loss/float64(len(batch)))
	}
	return losses, nil
}
