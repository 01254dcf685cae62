package selector

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
	"repro/internal/nn"
	"repro/internal/represent"
	"repro/internal/robust"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

func TestPredictInputValidation(t *testing.T) {
	cfg := fastConfig(represent.KindHistogram)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Predict(nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil matrix: got %v, want ErrBadInput", err)
	}
	empty := &sparse.COO{}
	if _, _, err := s.Predict(empty); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty matrix: got %v, want ErrBadInput", err)
	}
	var nilSel *Selector
	if _, _, err := nilSel.Predict(synthgen.Random(10, 10, 20, 1)); !errors.Is(err, ErrNoModel) {
		t.Fatalf("nil selector: got %v, want ErrNoModel", err)
	}
}

func TestPredictWithFallbackDegradesToCSR(t *testing.T) {
	cfg := fastConfig(represent.KindHistogram)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := synthgen.Random(20, 20, 60, 2)

	// Healthy path: no fallback.
	if p := s.PredictWithFallback(m); p.FellBack || p.Reason != nil {
		t.Fatalf("healthy predict fell back: %+v", p)
	}
	// Bad input falls back with a recorded reason.
	p := s.PredictWithFallback(&sparse.COO{})
	if !p.FellBack || p.Format != FallbackFormat || !errors.Is(p.Reason, ErrBadInput) {
		t.Fatalf("bad-input fallback: %+v", p)
	}
	// No model (failed load) falls back.
	var nilSel *Selector
	p = nilSel.PredictWithFallback(m)
	if !p.FellBack || p.Format != FallbackFormat || p.Reason == nil {
		t.Fatalf("nil-selector fallback: %+v", p)
	}
}

// The acceptance path: a corrupt model file on disk must yield a typed
// load error, and the service's degraded answer is CSR with the load
// failure recorded.
func TestCorruptModelFileFallsBackToCSR(t *testing.T) {
	cfg := fastConfig(represent.KindBinary)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x5A
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, lerr := LoadFile(path)
	if !errors.Is(lerr, durable.ErrChecksum) {
		t.Fatalf("corrupt load: got %v, want durable.ErrChecksum", lerr)
	}
	if loaded != nil {
		t.Fatal("corrupt load returned a selector")
	}
	p := loaded.PredictWithFallback(synthgen.Random(16, 16, 40, 3))
	if !p.FellBack || p.Format != FallbackFormat || p.Reason == nil {
		t.Fatalf("corrupt-model fallback: %+v", p)
	}
	// The load error itself can be recorded via FallbackPrediction.
	p = FallbackPrediction(lerr)
	if p.Format != FallbackFormat || !errors.Is(p.Reason, durable.ErrChecksum) {
		t.Fatalf("FallbackPrediction lost the reason: %+v", p)
	}
}

func TestLoadFileTruncatedTyped(t *testing.T) {
	cfg := fastConfig(represent.KindBinary)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); !errors.Is(err, durable.ErrTruncated) {
		t.Fatalf("truncated load: got %v, want durable.ErrTruncated", err)
	}
}

// A record whose Matrix() panics inside a Samples worker must surface
// as an error, not crash the process.
func TestSamplesWorkerPanicIsError(t *testing.T) {
	d := cpuDataset(t, 12)
	// Poison one record: a spec with an unknown family makes Matrix()
	// panic inside the worker.
	d.Records[7].Spec = synthgen.Spec{Family: synthgen.Family(-99), Seed: 1 << 40}
	cfg := fastConfig(represent.KindHistogram)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Samples(d, nil)
	if err == nil {
		t.Fatal("worker panic did not surface as error")
	}
	if !errors.As(err, new(*robust.PanicError)) {
		t.Fatalf("error %v does not carry the panic", err)
	}
}

// A panic inside an Evaluate worker — a record whose spec cannot be
// built — is contained too, and carries the panic.
func TestEvaluateWorkerPanicIsError(t *testing.T) {
	d := cpuDataset(t, 12)
	d.Records[7].Spec = synthgen.Spec{Family: synthgen.Family(-99), Seed: 1 << 40}
	cfg := fastConfig(represent.KindHistogram)
	cfg.Workers = 3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Evaluate(d, nil)
	if err == nil {
		t.Fatal("worker panic did not surface as error")
	}
	if !errors.As(err, new(*robust.PanicError)) {
		t.Fatalf("error %v does not carry the panic", err)
	}
}

// On a single worker Evaluate scores the records inline, under the same
// containment: the poisoned record's panic comes back as an error, and
// the selector then scores the records around it.
func TestEvaluateSamplesWorkerPanicIsError(t *testing.T) {
	d := cpuDataset(t, 12)
	d.Records[7].Spec = synthgen.Spec{Family: synthgen.Family(-99), Seed: 1 << 40}
	cfg := fastConfig(represent.KindHistogram)
	cfg.Workers = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Evaluate(d, nil)
	if err == nil {
		t.Fatal("worker panic did not surface as error")
	}
	if !errors.As(err, new(*robust.PanicError)) {
		t.Fatalf("error %v does not carry the panic", err)
	}
	rest := []int{0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11}
	m, err := s.Evaluate(d, rest)
	if err != nil {
		t.Fatalf("evaluating the healthy records: %v", err)
	}
	if m.Total() != len(rest) {
		t.Fatalf("scored %d records, want %d", m.Total(), len(rest))
	}
}

// Selector-level checkpoint/resume: training 3 epochs, "crashing",
// reloading from the checkpoint directory and finishing must equal a
// straight run with the same config (dropout off for determinism —
// dropout RNG streams are not checkpointed).
func TestSelectorCheckpointResume(t *testing.T) {
	d := cpuDataset(t, 60)
	makeCfg := func(epochs int) Config {
		cfg := fastConfig(represent.KindHistogram)
		cfg.Epochs = epochs
		cfg.DropoutRate = 0
		// Decay fires at a fraction of the *target* epoch count, which
		// differs between the 3-epoch first leg and the 6-epoch
		// reference; disable it so the legs are comparable.
		cfg.LRDecayAt = 0
		cfg.Workers = 2
		return cfg
	}

	// Straight reference run.
	ref, err := New(makeCfg(6))
	if err != nil {
		t.Fatal(err)
	}
	refSamples, err := ref.Samples(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	refLosses, err := ref.TrainSamplesCtx(context.Background(), refSamples, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: 3 epochs with checkpoints, then resume to 6.
	dir := t.TempDir()
	cp, err := nn.NewCheckpointer(dir, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	first, err := New(makeCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	firstSamples, err := first.Samples(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.TrainSamplesCtx(context.Background(), firstSamples, cp, nil); err != nil {
		t.Fatal(err)
	}

	resumed, ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Epoch != 3 {
		t.Fatalf("checkpoint epoch %d, want 3", ck.Epoch)
	}
	resumed.Cfg.Epochs = 6
	resumed.Cfg.Workers = 2
	resSamples, err := resumed.Samples(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	resLosses, err := resumed.TrainSamplesCtx(context.Background(), resSamples, nil, ck)
	if err != nil {
		t.Fatal(err)
	}
	if len(resLosses) != 3 {
		t.Fatalf("resumed run trained %d epochs, want 3", len(resLosses))
	}
	for i, l := range resLosses {
		if l != refLosses[3+i] {
			t.Fatalf("epoch %d loss diverged after resume: %v vs %v", 3+i, l, refLosses[3+i])
		}
	}
	refParams, resParams := ref.Model.Params(), resumed.Model.Params()
	for i := range refParams {
		a, b := refParams[i].Value.Data(), resParams[i].Value.Data()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("param %d[%d] diverged after resume: %v vs %v", i, j, a[j], b[j])
			}
		}
	}
}

// An impossible gradient bound forces divergence through the selector
// training path and surfaces nn.ErrDiverged.
func TestSelectorTrainDiverges(t *testing.T) {
	d := cpuDataset(t, 30)
	cfg := fastConfig(represent.KindHistogram)
	cfg.Epochs = 4
	cfg.MaxGradNorm = 1e-12
	cfg.MaxRetries = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Train(d, nil)
	if !errors.Is(err, nn.ErrDiverged) {
		t.Fatalf("err = %v, want nn.ErrDiverged", err)
	}
}

// Cancelling training returns the clean partial result: completed-epoch
// losses plus the context error.
func TestSelectorTrainCtxCancelled(t *testing.T) {
	d := cpuDataset(t, 30)
	cfg := fastConfig(represent.KindHistogram)
	cfg.Epochs = 50
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	losses, err := s.TrainCtx(ctx, d, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(losses) != 0 {
		t.Fatalf("pre-cancelled run reported %d epochs", len(losses))
	}
}
