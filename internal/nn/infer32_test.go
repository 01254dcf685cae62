package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// testModel32 builds a two-tower CNN exercising every op the engine
// compiles: conv+ReLU fusion, pooling, flatten, dense+ReLU fusion,
// dropout elision.
func testModel32(rng *rand.Rand) (*Model, [][]int) {
	shapes := [][]int{{2, 16, 12}, {1, 10, 10}}
	tower0 := []Layer{
		NewConv2D(2, 4, 3, 3, 1, 1, 1, 1, rng),
		NewReLU(),
		NewMaxPool2D(2, 0),
		NewConv2D(4, 6, 3, 3, 2, 2, 1, 1, rng),
		NewReLU(),
		NewFlatten(),
	}
	tower1 := []Layer{
		NewConv2D(1, 3, 3, 3, 1, 1, 0, 0, rng),
		NewReLU(),
		NewFlatten(),
	}
	f0 := 6 * 4 * 3 // tower0: (2,16,12) -> conv -> pool (4,8,6) -> conv s2 -> (6,4,3)
	f1 := 3 * 8 * 8
	head := []Layer{
		NewDense(f0+f1, 24, rng),
		NewReLU(),
		NewDropout(0.5, 7),
		NewDense(24, 5, rng),
	}
	return NewModel([][]Layer{tower0, tower1}, head), shapes
}

func randInputs(rng *rand.Rand, shapes [][]int) []*tensor.Tensor {
	ins := make([]*tensor.Tensor, len(shapes))
	for i, s := range shapes {
		t := tensor.New(s...)
		d := t.Data()
		for j := range d {
			d[j] = rng.NormFloat64()
		}
		ins[i] = t
	}
	return ins
}

// TestInfer32MatchesFloat64 compares the compiled float32 forward with
// the reference float64 path: probabilities must agree to float32
// precision and the argmax must match on inputs with a clear winner.
func TestInfer32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m, shapes := testModel32(rng)
	e, err := BuildInfer32(m, shapes)
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]float64, e.Classes())
	for trial := 0; trial < 25; trial++ {
		ins := randInputs(rng, shapes)
		wantCls, wantProbs := predictRef(m, ins)
		gotCls, err := e.Predict(ins, probs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range probs {
			if diff := math.Abs(probs[i] - wantProbs[i]); diff > 1e-4 {
				t.Fatalf("trial %d: prob[%d] = %g (f32) vs %g (f64)", trial, i, probs[i], wantProbs[i])
			}
		}
		// Argmax can legitimately flip inside float32 noise; demand
		// agreement only when the winner is clear of the runner-up.
		if gotCls != wantCls && margin(wantProbs) > 1e-4 {
			t.Fatalf("trial %d: class %d (f32) vs %d (f64), margin %g", trial, gotCls, wantCls, margin(wantProbs))
		}
	}
}

func margin(probs []float64) float64 {
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

// TestInfer32ZeroAllocs pins the acceptance criterion: the compiled
// forward path performs zero heap allocations per prediction.
func TestInfer32ZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, shapes := testModel32(rng)
	e, err := BuildInfer32(m, shapes)
	if err != nil {
		t.Fatal(err)
	}
	ins := randInputs(rng, shapes)
	probs := make([]float64, e.Classes())
	if _, err := e.Predict(ins, probs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.Predict(ins, probs); err != nil {
			t.Fatal(err)
		}
	})
	// The race detector makes sync.Pool drop items at random, so the
	// scratch arena is re-allocated there; only the plain build gates it.
	if allocs != 0 && !raceEnabled {
		t.Fatalf("Infer32.Predict allocates %.1f objects per run, want 0", allocs)
	}
}

// unsupportedLayer is a Layer the engine has no op for.
type unsupportedLayer struct{ *ReLU }

// TestInfer32RejectsUnsupportedLayer ensures an uncompilable model is a
// build error, never a bad compile.
func TestInfer32RejectsUnsupportedLayer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewModel([][]Layer{{
		NewConv2D(1, 2, 3, 3, 1, 1, 1, 1, rng),
		unsupportedLayer{NewReLU()},
		NewFlatten(),
	}}, []Layer{NewDense(2*8*8, 3, rng)})
	if _, err := BuildInfer32(m, [][]int{{1, 8, 8}}); err == nil {
		t.Fatal("BuildInfer32 compiled a model with a layer it has no op for")
	}
}

// TestInfer32InputValidation covers the engine's defensive paths.
func TestInfer32InputValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, shapes := testModel32(rng)
	e, err := BuildInfer32(m, shapes)
	if err != nil {
		t.Fatal(err)
	}
	ins := randInputs(rng, shapes)
	if _, err := e.Predict(ins[:1], make([]float64, e.Classes())); err == nil {
		t.Error("accepted wrong tower count")
	}
	if _, err := e.Predict(ins, make([]float64, e.Classes()-1)); err == nil {
		t.Error("accepted short probs buffer")
	}
	bad := []*tensor.Tensor{tensor.New(1, 2, 2), ins[1]}
	if _, err := e.Predict(bad, make([]float64, e.Classes())); err == nil {
		t.Error("accepted mis-shaped tower input")
	}
}

// TestInfer32Concurrent exercises the scratch pool under parallel
// callers (run with -race in CI's check job).
func TestInfer32Concurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, shapes := testModel32(rng)
	e, err := BuildInfer32(m, shapes)
	if err != nil {
		t.Fatal(err)
	}
	ins := randInputs(rng, shapes)
	want, werr := e.Predict(ins, make([]float64, e.Classes()))
	if werr != nil {
		t.Fatal(werr)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			probs := make([]float64, e.Classes())
			for i := 0; i < 50; i++ {
				got, err := e.Predict(ins, probs)
				if err != nil {
					done <- err
					return
				}
				if got != want {
					t.Errorf("concurrent predict drifted: %d vs %d", got, want)
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
