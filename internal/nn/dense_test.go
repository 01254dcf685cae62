package nn

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// denseRowsRef is Dense's forward as one dependent sum per row, the
// loop denseRows blocks four rows at a time: bias first, then the
// inputs by index.
func denseRowsRef(dst, w, b, x []float64) {
	n := len(x)
	for o := range dst {
		s := b[o]
		for i, v := range w[o*n : (o+1)*n] {
			s += v * x[i]
		}
		dst[o] = s
	}
}

// denseBackwardRef accumulates dW = g⊗x and dB = g over every row,
// zero-gradient rows included.
func denseBackwardRef(wg, bg, g, x []float64) {
	n := len(x)
	for o, go_ := range g {
		bg[o] += go_
		row := wg[o*n : (o+1)*n]
		for i := range row {
			row[i] += go_ * x[i]
		}
	}
}

// awkward draws a value from the edges of float64 arithmetic: signed
// zeros, subnormals, values whose products overflow, and ordinary ones.
func awkward(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64 * float64(rng.Intn(1000)-500)
	case 3:
		return (rng.Float64() - 0.5) * 1e300
	case 4:
		return (rng.Float64() - 0.5) * 1e-300
	default:
		return rng.NormFloat64()
	}
}

func awkwardSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = awkward(rng)
	}
	return s
}

// sameBits reports whether a and b hold the same float64 bits, except
// that any two NaNs match: when both operands of an add or multiply are
// NaN, amd64 returns the payload of the one in the destination
// register, and the compiler picks which operand that is. A NaN fails
// the divergence gate whatever its payload.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// TestDenseRowsMatchReference: the four-row forward is the one-sum
// row loop bit for bit, for every remainder of Out mod 4 and inputs
// that include ±0, subnormals and overflowing products.
func TestDenseRowsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, out := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 48} {
		for _, in := range []int{1, 3, 256} {
			for trial := 0; trial < 20; trial++ {
				w, b, x := awkwardSlice(rng, out*in), awkwardSlice(rng, out), awkwardSlice(rng, in)
				got, want := make([]float64, out), make([]float64, out)
				denseRows(got, w, b, x)
				denseRowsRef(want, w, b, x)
				if !sameBits(got, want) {
					t.Fatalf("out=%d in=%d trial %d: %v, reference %v", out, in, trial, got, want)
				}
			}
		}
	}
}

// TestDenseParamsBackwardMatchesFull: over a run of samples, a layer
// that only accumulates its parameter gradients (the first head layer
// after a codes sample) ends with W.Grad and B.Grad bit-identical to
// one running the full Backward and to the every-row reference — with
// rows whose gradient is exactly 0, negative gradients against zero
// inputs (−0 products), and gradients that cancel back to 0.
func TestDenseParamsBackwardMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, out := range []int{1, 3, 4, 7, 48} {
		for _, in := range []int{1, 3, 256} {
			full := NewDense(in, out, rng)
			params := full.Replica().(*Dense)
			wg, bg := make([]float64, out*in), make([]float64, out)
			var prev []float64
			for step := 0; step < 12; step++ {
				x := awkwardSlice(rng, in)
				for i := range x {
					if rng.Intn(3) == 0 {
						x[i] = 0
					}
				}
				g := make([]float64, out)
				for o := range g {
					switch rng.Intn(4) {
					case 0:
						g[o] = 0
					case 1:
						g[o] = -rng.Float64()
					default:
						g[o] = rng.NormFloat64()
					}
				}
				if step%4 == 3 { // undo the previous sample: sums cancel to +0
					x = prev
					for o := range g {
						g[o] = -g[o]
					}
				}
				prev = x
				xt := tensor.FromSlice(x, in)
				full.Forward(xt, true)
				full.Backward(tensor.FromSlice(g, out))
				params.Forward(xt, true)
				params.backwardParams(tensor.FromSlice(g, out))
				denseBackwardRef(wg, bg, g, x)
			}
			for name, pair := range map[string][3][]float64{
				"W.Grad": {params.W.Grad.Data(), full.W.Grad.Data(), wg},
				"B.Grad": {params.B.Grad.Data(), full.B.Grad.Data(), bg},
			} {
				if !sameBits(pair[0], pair[2]) || !sameBits(pair[1], pair[2]) {
					t.Fatalf("out=%d in=%d: %s differs from the every-row reference", out, in, name)
				}
			}
		}
	}
}

// FuzzDenseRows checks the four-row forward against the one-sum row
// loop and the params-only backward against the every-row reference,
// on arbitrary float64 bit patterns (NaNs and Infs included).
func FuzzDenseRows(f *testing.F) {
	f.Add(uint8(7), uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(48), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add(uint8(0), uint8(0), []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0}) // x = NaN, g = 0
	f.Fuzz(func(t *testing.T, out, in uint8, data []byte) {
		o, n := int(out%50)+1, int(in%20)+1
		next := func() float64 {
			if len(data) < 8 {
				return float64(len(data)) - 3.5
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return v
		}
		fill := func(k int) []float64 {
			s := make([]float64, k)
			for i := range s {
				s[i] = next()
			}
			return s
		}
		x, g, b, w := fill(n), fill(o), fill(o), fill(o*n)
		got, want := make([]float64, o), make([]float64, o)
		denseRows(got, w, b, x)
		denseRowsRef(want, w, b, x)
		if !sameBits(got, want) {
			t.Fatalf("forward out=%d in=%d: %v, reference %v", o, n, got, want)
		}
		l := &Dense{In: n, Out: o, W: newParam("w", tensor.FromSlice(w, o, n)), B: newParam("b", tensor.FromSlice(b, o))}
		l.Forward(tensor.FromSlice(x, n), true)
		l.backwardParams(tensor.FromSlice(g, o))
		wg, bg := make([]float64, o*n), make([]float64, o)
		denseBackwardRef(wg, bg, g, x)
		if !sameBits(l.W.Grad.Data(), wg) || !sameBits(l.B.Grad.Data(), bg) {
			t.Fatalf("params backward out=%d in=%d differs from the every-row reference", o, n)
		}
	})
}

// A codes sample with an Inf or NaN code must trip the divergence gate
// and leave the weights as they were. A NaN code is the sharp case:
// every hidden pre-activation is NaN, ReLU zeroes them all, the logits
// are the output bias and the loss is finite — only the first layer's
// dW, where each zero-gradient row adds 0·NaN, carries the NaN to the
// gate. Skipping those rows must not skip that.
func TestNonFiniteCodeTripsDivergenceGate(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, workers := range []int{1, 2} {
			rng := rand.New(rand.NewSource(21))
			m := ckptModel(rng)
			m.FreezeTowers(true)
			samples := ckptProblem(rng, 8)
			for i, s := range samples {
				samples[i] = Sample{Codes: m.Codes(s.Inputs), Label: s.Label}
			}
			samples[5].Codes.Data()[3] = bad
			before := modelWeights(m)
			tr := NewTrainer(m, NewAdam(0.01), len(samples), 1)
			tr.Workers = workers
			if _, err := tr.TrainEpochCtx(context.Background(), samples); !errors.Is(err, ErrNonFinite) {
				t.Fatalf("code %v, workers=%d: err = %v, want ErrNonFinite", bad, workers, err)
			}
			weightsEqual(t, before, modelWeights(m), "after the refused step")
		}
	}
}

// headModel is the selector's head shape behind a one-layer tower:
// Dense→ReLU→Dropout→Dense.
func headModel(rng *rand.Rand) *Model {
	tower := []Layer{NewDense(6, 12, rng), NewReLU(), NewFlatten()}
	head := []Layer{NewDense(12, 8, rng), NewReLU(), NewDropout(0.25, 5), NewDense(8, 3, rng)}
	return NewModel([][]Layer{tower}, head)
}

// TestCodesSampleAllocatesNothing: once a replica has trained one
// sample, training another codes sample — forward, loss into the
// caller's gradient, backward — allocates nothing.
func TestCodesSampleAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	m := headModel(rng)
	m.FreezeTowers(true)
	rep := m.Replica()
	s := ckptProblem(rng, 1)[0]
	s = Sample{Codes: m.Codes(s.Inputs), Label: s.Label}
	grad := tensor.New(3)
	step := func() {
		logits := rep.forward(s, true)
		crossEntropyInto(grad.Data(), logits.Data(), s.Label)
		rep.Backward(grad)
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("a codes sample allocates %.1f objects, want 0", allocs)
	}
}

// TestInferenceSharedAfterTraining: the train-mode buffers and state
// are a replica's own; inference writes none of them. evaluateRef
// with 4 workers and predictRef from 4 goroutines, on a replica that has
// trained (so its buffers exist), agree with the same calls made
// serially — for the head's layers behind a dense tower, and for conv
// towers whose replicas trained too (toyModel: Conv2D, ReLU, MaxPool2D).
// Run under -race, a buffer written by inference is a reported race.
func TestInferenceSharedAfterTraining(t *testing.T) {
	models := []struct {
		name    string
		build   func(*rand.Rand) *Model
		samples func(*rand.Rand, int) []Sample
	}{
		{"dense tower", headModel, ckptProblem},
		{"conv towers", toyModel, makeToyProblem},
	}
	for _, mc := range models {
		rng := rand.New(rand.NewSource(34))
		m := mc.build(rng)
		samples := mc.samples(rng, 24)
		tr := NewTrainer(m, NewAdam(0.01), 8, 1)
		tr.Workers = 2
		if _, err := tr.TrainEpochCtx(context.Background(), samples); err != nil {
			t.Fatal(err)
		}
		trained := tr.replicas[0]
		answer := func(s Sample) string {
			c, probs := predictRef(trained, s.Inputs)
			return fmt.Sprint(c, probs)
		}
		want := make([]string, len(samples))
		for i, s := range samples {
			want[i] = answer(s)
		}
		wantAcc, wantLoss := evaluateRef(trained, samples, 4)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, s := range samples {
					if got := answer(s); got != want[i] {
						t.Errorf("%s, sample %d: concurrent Predict %s, serial %s", mc.name, i, got, want[i])
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			acc, loss := evaluateRef(trained, samples, 4)
			if acc != wantAcc || loss != wantLoss {
				t.Errorf("%s: concurrent evaluateRef: %v/%v, serial %v/%v", mc.name, acc, loss, wantAcc, wantLoss)
			}
		}()
		wg.Wait()
	}
}
