package selector

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/represent"
	"repro/internal/robust"
	"repro/internal/sparse"
	"repro/internal/tensor"
)

// Typed inference errors; Predict callers (and PredictWithFallback's
// recorded reasons) match on them with errors.Is.
var (
	// ErrNoModel reports inference against a nil selector or a selector
	// without a loaded model (e.g. after a failed LoadFile).
	ErrNoModel = errors.New("selector: no model loaded")
	// ErrBadInput reports a nil, empty or degenerate input matrix.
	ErrBadInput = errors.New("selector: invalid input matrix")
	// ErrBadOutput reports non-finite model probabilities — the symptom
	// of weights poisoned before divergence guards existed, or of a
	// corrupt-but-decodable artifact.
	ErrBadOutput = errors.New("selector: model produced non-finite output")
)

// FallbackFormat is the always-safe choice when prediction is not
// possible: CSR, the paper's always-CSR baseline. Every platform's
// format set includes it and every kernel path supports it.
const FallbackFormat = sparse.FormatCSR

// Selector is a trained (or trainable) CNN format selector.
type Selector struct {
	Cfg   Config
	Model *nn.Model

	// epochHook, when set via SetEpochHook, observes every completed
	// training epoch. It is deliberately unexported (and therefore
	// outside the serialised artifact): telemetry wiring is per-process
	// state, not part of the model.
	epochHook func(nn.EpochStats)

	// inf32 caches the compiled float32 inference engine — the one
	// path from inputs to probabilities — built lazily on first Predict
	// and dropped whenever training runs (the engine snapshots weights).
	inf32 atomic.Pointer[nn.Infer32]
}

// engine32 returns the compiled engine, building it on first use. A
// model the engine cannot compile, or whose classes are not the
// configured formats, is an error every Predict and Evaluate returns:
// there is no second inference path to fall back to.
func (s *Selector) engine32() (*nn.Infer32, error) {
	if e := s.inf32.Load(); e != nil {
		return e, nil
	}
	e, err := nn.BuildInfer32(s.Model, InputShapes(s.Cfg))
	if err != nil {
		return nil, fmt.Errorf("selector: compiling inference engine: %w", err)
	}
	if e.Classes() != len(s.Cfg.Formats) {
		return nil, fmt.Errorf("%w: %d outputs for %d formats", ErrBadOutput, e.Classes(), len(s.Cfg.Formats))
	}
	s.inf32.Store(e)
	return e, nil
}

// decide is the one decision: it writes m's representation straight
// into the engine's arena, runs the forward pass, fills probs (len
// e.Classes()) and returns the chosen class. PredictPattern serves it
// and Evaluate scores it, so the class that is judged is the class that
// is served. Non-finite probabilities are ErrBadOutput.
func (s *Selector) decide(e *nn.Infer32, m *sparse.Pattern, probs []float64) (int, error) {
	cls, err := e.PredictInto(probs, func(in []float32) error {
		return represent.Into(in, m, s.Cfg.Represent)
	})
	if err != nil {
		return 0, err
	}
	for _, p := range probs {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return 0, ErrBadOutput
		}
	}
	return cls, nil
}

// SetEpochHook installs (or clears, with nil) a per-epoch telemetry
// observer for subsequent training runs. The hook runs on the training
// goroutine after each successfully completed epoch.
func (s *Selector) SetEpochHook(h func(nn.EpochStats)) { s.epochHook = h }

// New builds an untrained selector.
func New(cfg Config) (*Selector, error) {
	m, err := BuildModel(cfg)
	if err != nil {
		return nil, err
	}
	return &Selector{Cfg: cfg, Model: m}, nil
}

// inputsFor normalises a pattern into the model's float64 tower inputs,
// which only training reads (decide judges and serves from the float32
// engine): views of one representation, channels back to back — one
// (1,H,W) tensor per channel under late merging, the whole (C,H,W)
// under early merging.
func (s *Selector) inputsFor(m *sparse.Pattern) ([]*tensor.Tensor, error) {
	data := make([]float64, s.Cfg.Represent.Len())
	if err := represent.Into(data, m, s.Cfg.Represent); err != nil {
		return nil, err
	}
	shapes := InputShapes(s.Cfg)
	inputs := make([]*tensor.Tensor, len(shapes))
	for i, shape := range shapes {
		n := shape[0] * shape[1] * shape[2]
		inputs[i] = tensor.FromSlice(data[:n:n], shape...)
		data = data[n:]
	}
	return inputs, nil
}

// validateInput rejects patterns that cannot be normalised or whose
// "prediction" would be meaningless.
func validateInput(m *sparse.Pattern) error {
	if m == nil {
		return fmt.Errorf("%w: nil matrix", ErrBadInput)
	}
	r, c := m.Dims()
	if r <= 0 || c <= 0 {
		return fmt.Errorf("%w: degenerate dimensions %dx%d", ErrBadInput, r, c)
	}
	if m.NNZ() == 0 {
		return fmt.Errorf("%w: matrix has no nonzeros", ErrBadInput)
	}
	return nil
}

// Predict is PredictPattern of m's pattern: the decision reads no
// value.
func (s *Selector) Predict(m *sparse.COO) (sparse.Format, map[sparse.Format]float64, error) {
	return s.PredictPattern(sparse.PatternOf(m))
}

// PredictPattern returns the predicted best format and per-format
// probabilities for a sparsity pattern (inference, Figure 3 right
// half). The input is validated, a panic anywhere in representation or
// inference is recovered into the returned error, and non-finite model
// output is rejected — a hardened service entry point.
//
// PredictPattern is safe for concurrent callers sharing one Selector:
// the inference path reads model parameters but never writes layer or
// model state (enforced by TestPredictConcurrent under -race).
// Training and inference must not overlap on the same Selector.
func (s *Selector) PredictPattern(m *sparse.Pattern) (f sparse.Format, probs map[sparse.Format]float64, err error) {
	if s == nil || s.Model == nil {
		return 0, nil, ErrNoModel
	}
	if err := validateInput(m); err != nil {
		return 0, nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			f, probs, err = 0, nil, fmt.Errorf("selector: inference panic: %v", r)
		}
	}()
	e, err := s.engine32()
	if err != nil {
		return 0, nil, err
	}
	ps := make([]float64, e.Classes())
	cls, err := s.decide(e, m, ps)
	if err != nil {
		return 0, nil, err
	}
	out := make(map[sparse.Format]float64, len(ps))
	for i, p := range ps {
		out[s.Cfg.Formats[i]] = p
	}
	return s.Cfg.Formats[cls], out, nil
}

// Prediction is the result of PredictWithFallback: either the model's
// choice, or FallbackFormat with the failure recorded in Reason.
type Prediction struct {
	Format   sparse.Format
	Probs    map[sparse.Format]float64 // nil when FellBack
	FellBack bool
	Reason   error // non-nil iff FellBack
}

// FallbackPrediction builds the degraded result directly — used when
// there is no selector to ask (e.g. the model file failed to load).
func FallbackPrediction(reason error) Prediction {
	if reason == nil {
		reason = ErrNoModel
	}
	return Prediction{Format: FallbackFormat, FellBack: true, Reason: reason}
}

// PredictWithFallback never fails: when representation or inference
// breaks (or the receiver is nil — a failed model load), it returns the
// paper's always-CSR baseline with the reason recorded, so a bad deploy
// artifact degrades the service to baseline quality instead of taking
// it down.
func (s *Selector) PredictWithFallback(m *sparse.COO) Prediction {
	if s == nil || s.Model == nil {
		return FallbackPrediction(ErrNoModel)
	}
	f, probs, err := s.Predict(m)
	if err != nil {
		return FallbackPrediction(err)
	}
	return Prediction{Format: f, Probs: probs}
}

// classOf maps a dataset label to the selector's class index.
func (s *Selector) classOf(f sparse.Format) (int, error) {
	for i, g := range s.Cfg.Formats {
		if g == f {
			return i, nil
		}
	}
	return 0, fmt.Errorf("selector: label %v not in configured formats %v", f, s.Cfg.Formats)
}

// indexOrAll returns idx, or every record index of d when idx is nil.
func indexOrAll(d *dataset.Dataset, idx []int) []int {
	if idx != nil {
		return idx
	}
	idx = make([]int, len(d.Records))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Samples normalises the given dataset records (all of them when idx is
// nil) into nn training samples, in parallel. Worker panics are
// recovered and reported as errors alongside ordinary failures.
func (s *Selector) Samples(d *dataset.Dataset, idx []int) ([]nn.Sample, error) {
	idx = indexOrAll(d, idx)
	samples := make([]nn.Sample, len(idx))
	if err := forChunks(s.Cfg.Workers, len(idx), func(lo, hi int) error {
		for k := lo; k < hi; k++ {
			r := &d.Records[idx[k]]
			inputs, err := s.inputsFor(&r.Matrix().Pattern)
			if err != nil {
				return err
			}
			label, err := s.classOf(r.Label)
			if err != nil {
				return err
			}
			samples[k] = nn.Sample{Inputs: inputs, Label: label}
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("selector: building samples: %w", err)
	}
	return samples, nil
}

// Train fits the selector on the given dataset records (step 4 of
// Figure 3). It returns the per-epoch training losses.
func (s *Selector) Train(d *dataset.Dataset, idx []int) ([]float64, error) {
	return s.TrainCtx(context.Background(), d, idx)
}

// TrainCtx is Train with cancellation: an interrupted run returns the
// per-epoch losses completed so far along with the context error.
func (s *Selector) TrainCtx(ctx context.Context, d *dataset.Dataset, idx []int) ([]float64, error) {
	samples, err := s.Samples(d, idx)
	if err != nil {
		return nil, err
	}
	return s.TrainSamplesCtx(ctx, samples, nil, nil)
}

// TrainSamples fits the selector on pre-built samples, dropping the
// learning rate 5x after the LRDecayAt fraction of the epochs.
func (s *Selector) TrainSamples(samples []nn.Sample) ([]float64, error) {
	return s.TrainSamplesCtx(context.Background(), samples, nil, nil)
}

// TrainSamplesCtx is the fault-tolerant training entry point: it runs
// the nn.Trainer recovery loop (divergent epochs roll back to the last
// good state with a backed-off learning rate; see Config.MaxRetries and
// Config.LRBackoff), snapshots into cp when provided, and — given a
// checkpoint previously loaded with LoadCheckpoint — resumes exactly
// where the interrupted run stopped.
func (s *Selector) TrainSamplesCtx(ctx context.Context, samples []nn.Sample, cp *nn.Checkpointer, resume *nn.Checkpoint) ([]float64, error) {
	samples, err := s.encodeFrozen(samples)
	if err != nil {
		return nil, err
	}
	return s.train(cp, resume, func(tr *nn.Trainer, opts nn.RunOpts) ([]float64, error) {
		return tr.Run(ctx, samples, opts)
	})
}

// encodeFrozen returns the samples the trainer is to be fed. When every
// tower parameter is frozen (top evolvement, Section 6) the towers are a
// fixed function, so each sample becomes its CNN codes — towers run once
// here, in inference mode — and every epoch after trains the head on
// those: no tower runs in training mode or is back-propagated into, and
// the weights come out bit-identical. Otherwise the samples are
// returned as they are. The argument is never modified.
func (s *Selector) encodeFrozen(samples []nn.Sample) ([]nn.Sample, error) {
	if !s.Model.TowersFrozen() {
		return samples, nil
	}
	coded := make([]nn.Sample, len(samples))
	if err := forChunks(s.Cfg.Workers, len(samples), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			coded[i] = nn.Sample{Codes: s.Model.Codes(samples[i].Inputs), Label: samples[i].Label}
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("selector: encoding samples: %w", err)
	}
	return coded, nil
}

// train is the set-up every epoch-based training entry point shares:
// optimizer, trainer, checkpoint resume and the LRDecayAt schedule
// (the learning rate drops 5x after that fraction of the epochs). run
// picks the sample source. train owns dropping the compiled inference
// engine, so no entry point can leave Predict answering from
// pre-training weights.
func (s *Selector) train(cp *nn.Checkpointer, resume *nn.Checkpoint, run func(*nn.Trainer, nn.RunOpts) ([]float64, error)) ([]float64, error) {
	defer s.inf32.Store(nil)
	opt := nn.NewAdam(s.Cfg.LearningRate)
	opt.WeightDecay = s.Cfg.WeightDecay
	tr := nn.NewTrainer(s.Model, opt, s.Cfg.BatchSize, s.Cfg.Seed+101)
	tr.Workers = s.Cfg.Workers
	tr.MaxGradNorm = s.Cfg.MaxGradNorm
	if resume != nil {
		if err := tr.RestoreCheckpoint(resume); err != nil {
			return nil, fmt.Errorf("selector: restoring checkpoint: %w", err)
		}
	}
	decayEpoch := s.Cfg.Epochs + 1
	if s.Cfg.LRDecayAt > 0 && s.Cfg.LRDecayAt < 1 {
		decayEpoch = int(float64(s.Cfg.Epochs) * s.Cfg.LRDecayAt)
	}
	extra, err := s.checkpointExtra()
	if err != nil {
		return nil, err
	}
	decayed := resume != nil && resume.Epoch >= decayEpoch
	return run(tr, nn.RunOpts{
		Epochs:       s.Cfg.Epochs,
		Checkpointer: cp,
		Extra:        extra,
		MaxRetries:   s.Cfg.MaxRetries,
		LRBackoff:    s.Cfg.LRBackoff,
		PreEpoch: func(e int) {
			if !decayed && e >= decayEpoch {
				decayed = true
				opt.LR = s.Cfg.LearningRate * 0.2
			}
		},
		PostEpoch: s.epochHook,
	})
}

// TrainSteps runs exactly n minibatch steps and returns per-step losses
// — the Figure 11 convergence curves.
func (s *Selector) TrainSteps(samples []nn.Sample, n int) ([]float64, error) {
	defer s.inf32.Store(nil)
	samples, err := s.encodeFrozen(samples)
	if err != nil {
		return nil, err
	}
	return s.newTrainer().TrainSteps(samples, n)
}

func (s *Selector) newTrainer() *nn.Trainer {
	tr := nn.NewTrainer(s.Model, nn.NewAdam(s.Cfg.LearningRate), s.Cfg.BatchSize, s.Cfg.Seed+101)
	tr.Workers = s.Cfg.Workers
	return tr
}

// Evaluate scores the selector over the given records (all of them when
// idx is nil) and returns the Table 2/3 metrics. Each record is judged
// by decide on the engine PredictPattern serves from, built once; the
// records are scored on parallel workers, each with one probabilities
// buffer. A worker panic comes back as an error that unwraps to a
// *robust.PanicError.
func (s *Selector) Evaluate(d *dataset.Dataset, idx []int) (*Metrics, error) {
	idx = indexOrAll(d, idx)
	e, err := s.engine32()
	if err != nil {
		return nil, err
	}
	truth, pred := make([]int, len(idx)), make([]int, len(idx))
	if err := forChunks(s.Cfg.Workers, len(idx), func(lo, hi int) error {
		probs := make([]float64, e.Classes())
		for k := lo; k < hi; k++ {
			r := &d.Records[idx[k]]
			var err error
			if truth[k], err = s.classOf(r.Label); err != nil {
				return err
			}
			if pred[k], err = s.decide(e, &r.Matrix().Pattern, probs); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("selector: evaluating: %w", err)
	}
	m := NewMetrics(s.Cfg.Formats)
	for k := range idx {
		m.Add(truth[k], pred[k])
	}
	return m, nil
}

// forChunks splits [0,n) into one contiguous chunk per worker (<=0:
// GOMAXPROCS, never more than n) and runs fn on each under the
// panic-safe robust.Workers pool.
func forChunks(workers, n int, fn func(lo, hi int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n))
	chunk := (n + workers - 1) / workers
	return robust.Workers(workers, func(w int) error {
		if lo, hi := w*chunk, min((w+1)*chunk, n); lo < hi {
			return fn(lo, hi)
		}
		return nil
	})
}

// Summary renders the architecture (the Figure 10 diagram as text).
func (s *Selector) Summary() string {
	return fmt.Sprintf("%s structure, %s representation\n%s",
		s.Cfg.Structure, s.Cfg.Represent.Kind, s.Model.Summary(InputShapes(s.Cfg)))
}
