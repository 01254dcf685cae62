package nn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/durable"
	"repro/internal/robust"
	"repro/internal/tensor"
)

// ckptModel builds a small dropout-free model (dropout RNG streams are
// not part of a checkpoint, so determinism tests avoid them).
func ckptModel(rng *rand.Rand) *Model {
	tower := []Layer{NewDense(6, 10, rng), NewReLU(), NewFlatten()}
	head := []Layer{NewDense(10, 8, rng), NewReLU(), NewDense(8, 3, rng)}
	return NewModel([][]Layer{tower}, head)
}

func ckptProblem(rng *rand.Rand, n int) []Sample {
	samples := make([]Sample, n)
	for i := range samples {
		cls := rng.Intn(3)
		in := tensor.New(6)
		for j := range in.Data() {
			in.Data()[j] = rng.NormFloat64()*0.1 + float64(cls)*0.8
		}
		samples[i] = Sample{Inputs: []*tensor.Tensor{in}, Label: cls}
	}
	return samples
}

func modelWeights(m *Model) [][]float64 {
	var out [][]float64
	for _, p := range m.Params() {
		out = append(out, append([]float64(nil), p.Value.Data()...))
	}
	return out
}

func weightsEqual(t *testing.T, a, b [][]float64, context string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: param count %d vs %d", context, len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("%s: param %d[%d]: %v vs %v", context, i, j, a[i][j], b[i][j])
			}
		}
	}
}

// --- corrupt model files ----------------------------------------------

func saveTempModel(t *testing.T) (string, *Model) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	m := ckptModel(rng)
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := SaveFile(path, m); err != nil {
		t.Fatal(err)
	}
	return path, m
}

func TestLoadFileRoundTripEnvelope(t *testing.T) {
	path, m := saveTempModel(t)
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	weightsEqual(t, modelWeights(m), modelWeights(got), "envelope round trip")
}

func TestLoadFileTruncated(t *testing.T) {
	path, _ := saveTempModel(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{len(data) - 7, durable.EnvelopeHeaderLen, durable.EnvelopeHeaderLen - 5, 3} {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadFile(path)
		if !errors.Is(err, durable.ErrTruncated) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrTruncated", n, err)
		}
	}
}

func TestLoadFileEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.bin")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); !errors.Is(err, durable.ErrTruncated) {
		t.Fatalf("empty file: got %v, want ErrTruncated", err)
	}
}

// allocBytesPerRun is the mean number of heap bytes f allocates a run.
func allocBytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

func TestLoadFileFlippedByte(t *testing.T) {
	path, _ := saveTempModel(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); !errors.Is(err, durable.ErrChecksum) {
		t.Fatalf("flipped byte: got %v, want ErrChecksum", err)
	}
}

func TestLoadFileWrongVersion(t *testing.T) {
	path, _ := saveTempModel(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[7] = 99 // version field (big-endian uint32 at offset 4)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); !errors.Is(err, durable.ErrVersion) {
		t.Fatalf("wrong version: got %v, want ErrVersion", err)
	}
}

func TestLoadFileBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.bin")
	if err := os.WriteFile(path, []byte("gob gob gob not an envelope at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); !errors.Is(err, durable.ErrBadMagic) {
		t.Fatalf("bad magic: got %v, want ErrBadMagic", err)
	}
}

// --- checkpoint save / kill / resume ----------------------------------

// Training E epochs straight must equal training k epochs, checkpointing,
// "crashing", and resuming from the checkpoint for the remaining E-k —
// same losses, same final weights.
func TestCheckpointResumeIsDeterministic(t *testing.T) {
	const total, cut = 8, 3
	build := func() (*Trainer, []Sample) {
		rng := rand.New(rand.NewSource(21))
		m := ckptModel(rng)
		samples := ckptProblem(rng, 60)
		tr := NewTrainer(m, NewAdam(0.01), 16, 5)
		tr.Workers = 2
		return tr, samples
	}

	// Reference: straight run.
	ref, refSamples := build()
	refLosses, err := ref.Run(context.Background(), refSamples, RunOpts{Epochs: total})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: train `cut` epochs, checkpoint, throw the trainer
	// away (the "crash"), rebuild from the same init, restore, finish.
	dir := t.TempDir()
	cp, err := NewCheckpointer(dir, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	first, firstSamples := build()
	if _, err := first.Run(context.Background(), firstSamples, RunOpts{Epochs: cut, Checkpointer: cp}); err != nil {
		t.Fatal(err)
	}

	ck, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != cut {
		t.Fatalf("latest checkpoint at epoch %d, want %d", ck.Epoch, cut)
	}
	second, secondSamples := build()
	if err := second.RestoreCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	resLosses, err := second.Run(context.Background(), secondSamples, RunOpts{Epochs: total})
	if err != nil {
		t.Fatal(err)
	}

	if len(refLosses) != total || len(resLosses) != total-cut {
		t.Fatalf("loss lengths: ref %d, resumed %d", len(refLosses), len(resLosses))
	}
	for i, l := range resLosses {
		if l != refLosses[cut+i] {
			t.Fatalf("epoch %d loss diverged after resume: %v vs %v", cut+i, l, refLosses[cut+i])
		}
	}
	weightsEqual(t, modelWeights(ref.Model), modelWeights(second.Model), "resumed weights")
}

// Cancellation mid-run flushes a checkpoint at the last completed epoch
// and returns the context error — the kill -INT path.
func TestRunCancelFlushesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cp, err := NewCheckpointer(dir, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, samples := func() (*Trainer, []Sample) {
		rng := rand.New(rand.NewSource(4))
		m := ckptModel(rng)
		tr := NewTrainer(m, NewAdam(0.01), 16, 6)
		return tr, ckptProblem(rng, 40)
	}()
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	losses, err := tr.Run(ctx, samples, RunOpts{Epochs: 50, Checkpointer: cp,
		PreEpoch: func(epoch int) {
			ran++
			if ran == 4 {
				cancel() // "SIGINT" arrives during epoch 4
			}
		}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(losses) == 0 {
		t.Fatal("no completed epochs before cancellation")
	}
	ck, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != len(losses) {
		t.Fatalf("flushed checkpoint epoch %d, completed epochs %d", ck.Epoch, len(losses))
	}
	// The flushed checkpoint must actually restore.
	rng := rand.New(rand.NewSource(4))
	tr2 := NewTrainer(ckptModel(rng), NewAdam(0.01), 16, 6)
	if err := tr2.RestoreCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	weightsEqual(t, modelWeights(tr.Model), modelWeights(tr2.Model), "post-cancel restore")
}

// --- divergence recovery ----------------------------------------------

// A NaN epoch (injected via the loss hook) must roll back to the last
// good state, back off the learning rate, and continue — with finite
// weights throughout.
func TestRunRecoversFromInjectedNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := ckptModel(rng)
	opt := NewAdam(0.02)
	tr := NewTrainer(m, opt, 16, 7)
	samples := ckptProblem(rng, 40)

	nanBatches := 0
	tr.LossHook = func(loss float64) float64 {
		// Poison every batch of epochs 2 and 3 (first two attempts at
		// the third epoch), then behave.
		if tr.Epoch == 2 && nanBatches < 2 {
			nanBatches++
			return math.NaN()
		}
		return loss
	}
	losses, err := tr.Run(context.Background(), samples, RunOpts{Epochs: 5, MaxRetries: 3, LRBackoff: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 5 {
		t.Fatalf("completed %d epochs, want 5", len(losses))
	}
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("non-finite loss %v leaked into results", l)
		}
	}
	for i, p := range m.Params() {
		for _, v := range p.Value.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("param %d has non-finite weight %v", i, v)
			}
		}
	}
	// Two recoveries at backoff 0.5 from LR 0.02.
	if got, want := opt.LR, 0.02*0.25; math.Abs(got-want) > 1e-12 {
		t.Fatalf("LR after two backoffs = %v, want %v", got, want)
	}
}

// Permanent divergence exhausts the retry budget and surfaces
// ErrDiverged, leaving last-good (finite) weights in place.
func TestRunDivergedAfterRetries(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := ckptModel(rng)
	tr := NewTrainer(m, NewAdam(0.02), 16, 8)
	samples := ckptProblem(rng, 40)
	tr.LossHook = func(loss float64) float64 {
		if tr.Epoch >= 1 {
			return math.Inf(1)
		}
		return loss
	}
	losses, err := tr.Run(context.Background(), samples, RunOpts{Epochs: 6, MaxRetries: 2})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("err = %v, want ErrDiverged", err)
	}
	if len(losses) != 1 {
		t.Fatalf("completed %d epochs before divergence, want 1", len(losses))
	}
	for _, p := range m.Params() {
		for _, v := range p.Value.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("divergence left non-finite weights behind")
			}
		}
	}
}

// Exploding gradients (MaxGradNorm) take the same recovery path.
func TestMaxGradNormTriggersNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := ckptModel(rng)
	tr := NewTrainer(m, NewAdam(0.01), 8, 9)
	tr.MaxGradNorm = 1e-9 // everything "explodes"
	_, err := tr.TrainEpochCtx(context.Background(), ckptProblem(rng, 16))
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
}

// --- panic containment -------------------------------------------------

// A panic inside a training worker (nil input tensor) must surface as an
// error, not kill the process or deadlock.
func TestTrainBatchWorkerPanicIsError(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := ckptModel(rng)
	tr := NewTrainer(m, NewAdam(0.01), 8, 10)
	tr.Workers = 4
	samples := ckptProblem(rng, 16)
	samples[11].Inputs = nil // poison one sample: Forward will panic
	_, err := tr.TrainEpochCtx(context.Background(), samples)
	if err == nil {
		t.Fatal("worker panic did not surface as error")
	}
	if !errors.As(err, new(*robust.PanicError)) {
		t.Fatalf("error %v does not carry the panic", err)
	}
}

// A model is evaluated by its compiled engine on parallel workers, one
// probabilities buffer each. A worker that panics mid-pass must surface
// as an error carrying the panic, and the engine must keep answering as
// before: the arena the panicking pass held goes back to the pool.
func TestEvaluateModelWorkerPanicIsError(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m, shapes := testModel32(rng)
	e, err := BuildInfer32(m, shapes)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][]*tensor.Tensor, 12)
	want := make([]int, len(inputs))
	probs := make([]float64, e.Classes())
	for i := range inputs {
		inputs[i] = randInputs(rng, shapes)
		if want[i], err = e.Predict(inputs[i], probs); err != nil {
			t.Fatal(err)
		}
	}
	err = robust.Workers(3, func(w int) error {
		probs := make([]float64, e.Classes())
		for i := w * 4; i < (w+1)*4; i++ {
			if i == 5 { // poison one sample: its pass panics
				_, err := e.PredictInto(probs, func([]float32) error { panic("poisoned sample") })
				return err
			}
			if _, err := e.Predict(inputs[i], probs); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		t.Fatal("worker panic did not surface as error")
	}
	if !errors.As(err, new(*robust.PanicError)) {
		t.Fatalf("error %v does not carry the panic", err)
	}
	for i, in := range inputs {
		got, err := e.Predict(in, probs)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("sample %d after the panic: class %d, want %d", i, got, want[i])
		}
	}
}

// --- checkpointer retention --------------------------------------------

func TestCheckpointerRetentionAndBest(t *testing.T) {
	dir := t.TempDir()
	cp, err := NewCheckpointer(dir, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	tr := NewTrainer(ckptModel(rng), NewAdam(0.01), 8, 11)
	lossAt := map[int]float64{1: 0.9, 2: 0.3, 3: 0.5, 4: 0.4}
	for epoch := 1; epoch <= 4; epoch++ {
		tr.Epoch = epoch
		ck, err := tr.Checkpoint(lossAt[epoch], nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := cp.Save(ck); err != nil {
			t.Fatal(err)
		}
	}
	epochs, err := checkpointEpochs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 2 || epochs[0] != 3 || epochs[1] != 4 {
		t.Fatalf("retained epochs %v, want [3 4]", epochs)
	}
	best, err := BestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if best.Epoch != 2 || best.Loss != 0.3 {
		t.Fatalf("best checkpoint epoch %d loss %v, want epoch 2 loss 0.3", best.Epoch, best.Loss)
	}
	// A fresh Checkpointer over the same dir adopts existing state: a
	// worse loss must not displace best.
	cp2, err := NewCheckpointer(dir, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr.Epoch = 5
	ck, _ := tr.Checkpoint(0.8, nil)
	if err := cp2.Save(ck); err != nil {
		t.Fatal(err)
	}
	best, err = BestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if best.Loss != 0.3 {
		t.Fatalf("best loss %v after restart, want 0.3", best.Loss)
	}
}

func TestLatestCheckpointSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	cp, err := NewCheckpointer(dir, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	tr := NewTrainer(ckptModel(rng), NewAdam(0.01), 8, 12)
	for epoch := 1; epoch <= 2; epoch++ {
		tr.Epoch = epoch
		ck, _ := tr.Checkpoint(0.5, nil)
		if err := cp.Save(ck); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the newest file; Latest must fall back to epoch 1.
	newest := filepath.Join(dir, "ckpt-000002.ckpt")
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != 1 {
		t.Fatalf("latest usable checkpoint epoch %d, want 1", ck.Epoch)
	}
	if _, err := LatestCheckpoint(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: got %v, want ErrNoCheckpoint", err)
	}
}
