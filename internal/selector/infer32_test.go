package selector

import (
	"context"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/represent"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// TestPredictFloat32MatchesFloat64 is the accuracy contract of the one
// inference path: over a few hundred generated matrices and both model
// structures, Predict (the compiled float32 engine) must agree with the
// float64 reference forward pass on the same inputs — probabilities to
// f32 precision, and the same format unless the reference's own top-two
// margin is below that precision.
func TestPredictFloat32MatchesFloat64(t *testing.T) {
	late := DefaultConfig(represent.KindHistogram, sparse.CPUFormats())
	early := fastConfig(represent.KindHistogram)
	early.Structure = EarlyMerging
	for _, cfg := range []Config{late, early} {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, spec := range synthgen.SampleSpecs(200, 7, 256) {
			m := synthgen.Build(spec)
			gotFmt, gotProbs, err := s.Predict(m)
			if err != nil {
				t.Fatalf("%v matrix %d: %v", cfg.Structure, i, err)
			}
			wantFmt, wantProbs := referencePredict(t, s, m)
			for f, p := range wantProbs {
				if diff := math.Abs(gotProbs[f] - p); diff > 1e-4 {
					t.Fatalf("%v matrix %d: P(%v) = %g (engine) vs %g (float64)", cfg.Structure, i, f, gotProbs[f], p)
				}
			}
			if gotFmt != wantFmt && probMargin(wantProbs) >= 1e-4 {
				t.Fatalf("%v matrix %d: format %v (engine) vs %v (float64)", cfg.Structure, i, gotFmt, wantFmt)
			}
		}
	}
}

// referencePredict answers from the float64 training layers — what
// Predict must reproduce from the current weights.
func referencePredict(t *testing.T, s *Selector, m *sparse.COO) (sparse.Format, map[sparse.Format]float64) {
	t.Helper()
	inputs, err := s.inputsFor(&m.Pattern)
	if err != nil {
		t.Fatal(err)
	}
	ps := nn.Softmax(s.Model.Forward(inputs, false).Data())
	cls := 0
	probs := make(map[sparse.Format]float64, len(ps))
	for i, p := range ps {
		probs[s.Cfg.Formats[i]] = p
		if p > ps[cls] {
			cls = i
		}
	}
	return s.Cfg.Formats[cls], probs
}

func probMargin(probs map[sparse.Format]float64) float64 {
	best, second := math.Inf(-1), math.Inf(-1)
	for _, p := range probs {
		if p > best {
			best, second = p, best
		} else if p > second {
			second = p
		}
	}
	return best - second
}

// TestFloat32EngineInvalidatedByTraining ensures a stale engine cannot
// serve predictions from pre-training weights, whichever training entry
// point moved them.
func TestFloat32EngineInvalidatedByTraining(t *testing.T) {
	d := cpuDataset(t, 12)
	storeDir := t.TempDir()
	if _, err := dataset.WriteStore(storeDir, d, 4); err != nil {
		t.Fatal(err)
	}
	store, _, err := dataset.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	for name, train := range map[string]func(*Selector) error{
		"Train": func(s *Selector) error { _, err := s.Train(d, nil); return err },
		"TrainStreamCtx": func(s *Selector) error {
			_, err := s.TrainStreamCtx(context.Background(), store, nil, nil)
			return err
		},
		"TrainSteps": func(s *Selector) error {
			samples, err := s.Samples(d, nil)
			if err != nil {
				return err
			}
			_, err = s.TrainSteps(samples, 3)
			return err
		},
	} {
		cfg := DefaultConfig(represent.KindHistogram, sparse.CPUFormats())
		cfg.Epochs = 2
		cfg.BatchSize = 4
		cfg.Workers = 1
		cfg.LearningRate = 0.01 // move the weights far enough to see
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := synthgen.Banded(96, 3, 1.0, 4)
		_, before, err := s.Predict(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := train(s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, after, err := s.Predict(m)
		if err != nil {
			t.Fatal(err)
		}
		_, want := referencePredict(t, s, m)
		moved := false
		for f, p := range want {
			if math.Abs(after[f]-p) > 1e-4 {
				t.Fatalf("%s: Predict answers P(%v) = %g after training, new weights say %g (stale engine)", name, f, after[f], p)
			}
			moved = moved || math.Abs(before[f]-p) > 1e-3
		}
		if !moved {
			t.Fatalf("%s: training did not move the probabilities; the test cannot see a stale engine", name)
		}
	}
}

// uncompilable is a tower layer the inference engine has no op for.
type uncompilable struct{ nn.Layer }

// TestPredictUncompilableModelIsError: with one inference path there is
// nothing to fall back to — a model the engine cannot compile makes
// Predict fail (and PredictWithFallback degrade to CSR with the reason),
// never silently answer from the float64 layers.
func TestPredictUncompilableModelIsError(t *testing.T) {
	s, err := New(fastConfig(represent.KindHistogram))
	if err != nil {
		t.Fatal(err)
	}
	s.Model.Towers[0] = append([]nn.Layer{uncompilable{s.Model.Towers[0][0]}}, s.Model.Towers[0][1:]...)
	m := synthgen.Banded(64, 3, 1.0, 1)
	if _, _, err := s.Predict(m); err == nil {
		t.Fatal("Predict answered from a model the engine cannot compile")
	}
	if p := s.PredictWithFallback(m); !p.FellBack || p.Format != FallbackFormat || p.Reason == nil {
		t.Fatalf("PredictWithFallback = %+v, want the CSR fallback with a reason", p)
	}
}
