package nn

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/tensor"
)

func randInput(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data() {
		t.Data()[i] = rng.NormFloat64()
	}
	return t
}

// lossOf runs a model on one sample and returns the cross-entropy loss.
func lossOf(m *Model, inputs []*tensor.Tensor, label int) float64 {
	logits := m.Forward(inputs, false)
	loss, _ := CrossEntropyLoss(logits, label)
	return loss
}

// predictRef is the float64 reference forward pass — argmax and softmax
// of the layers' inference mode — that the compiled engine and the
// inference-sharing tests are checked against, as conv_test.go keeps
// im2colRef for the convolution.
func predictRef(m *Model, inputs []*tensor.Tensor) (int, []float64) {
	probs := Softmax(m.Forward(inputs, false).Data())
	best := 0
	for i, p := range probs {
		if p > probs[best] {
			best = i
		}
	}
	return best, probs
}

// evaluateRef is the float64 reference evaluation: accuracy and mean
// cross-entropy over samples (inputs or codes), one contiguous chunk
// and one replica per worker.
func evaluateRef(m *Model, samples []Sample, workers int) (acc, meanLoss float64) {
	hits := make([]int, workers)
	losses := make([]float64, workers)
	chunk := (len(samples) + workers - 1) / workers
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep := m.Replica()
			for _, s := range samples[min(wi*chunk, len(samples)):min((wi+1)*chunk, len(samples))] {
				logits := rep.forward(s, false)
				loss, _ := CrossEntropyLoss(logits, s.Label)
				losses[wi] += loss
				if logits.ArgMax() == s.Label {
					hits[wi]++
				}
			}
		}()
	}
	wg.Wait()
	h, l := 0, 0.0
	for wi := range hits {
		h += hits[wi]
		l += losses[wi]
	}
	return float64(h) / float64(len(samples)), l / float64(len(samples))
}

// gradCheck verifies every parameter gradient of the model against a
// central finite difference on the loss.
func gradCheck(t *testing.T, m *Model, inputs []*tensor.Tensor, label int, tol float64) {
	t.Helper()
	m.ZeroGrads()
	logits := m.Forward(inputs, true)
	_, g := CrossEntropyLoss(logits, label)
	m.Backward(g)

	const eps = 1e-5
	for pi, p := range m.Params() {
		d := p.Value.Data()
		gd := p.Grad.Data()
		// Check a sample of coordinates to keep the test fast.
		stride := len(d)/7 + 1
		for i := 0; i < len(d); i += stride {
			orig := d[i]
			d[i] = orig + eps
			lp := lossOf(m, inputs, label)
			d[i] = orig - eps
			lm := lossOf(m, inputs, label)
			d[i] = orig
			want := (lp - lm) / (2 * eps)
			if math.Abs(gd[i]-want) > tol*(1+math.Abs(want)) {
				t.Fatalf("param %d (%s) coord %d: grad %v, finite diff %v",
					pi, p.Name, i, gd[i], want)
			}
		}
	}
}

func TestGradCheckDenseOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewModel(
		[][]Layer{{NewFlatten()}},
		[]Layer{NewDense(12, 8, rng), NewReLU(), NewDense(8, 3, rng)},
	)
	gradCheck(t, m, []*tensor.Tensor{randInput(rng, 1, 3, 4)}, 1, 1e-5)
}

func TestGradCheckConvPool(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	conv := NewConv2D(1, 3, 3, 3, 1, 1, 1, 1, rng)
	m := NewModel(
		[][]Layer{{conv, NewReLU(), NewMaxPool2D(2, 2), NewFlatten()}},
		[]Layer{NewDense(3*4*4, 4, rng)},
	)
	gradCheck(t, m, []*tensor.Tensor{randInput(rng, 1, 8, 8)}, 2, 1e-4)
}

func TestGradCheckStridedConv(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	conv := NewConv2D(2, 4, 3, 3, 2, 2, 1, 1, rng)
	os := conv.OutShape([]int{2, 9, 9})
	m := NewModel(
		[][]Layer{{conv, NewReLU(), NewFlatten()}},
		[]Layer{NewDense(os[0]*os[1]*os[2], 3, rng)},
	)
	gradCheck(t, m, []*tensor.Tensor{randInput(rng, 2, 9, 9)}, 0, 1e-4)
}

func TestGradCheckTwoTowerLateMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	towerA := []Layer{NewConv2D(1, 2, 3, 3, 1, 1, 0, 0, rng), NewReLU(), NewFlatten()}
	towerB := []Layer{NewConv2D(1, 2, 3, 3, 1, 1, 0, 0, rng), NewReLU(), NewFlatten()}
	// Tower outputs: 2×4×4 = 32 each; merged 64.
	m := NewModel(
		[][]Layer{towerA, towerB},
		[]Layer{NewDense(64, 10, rng), NewReLU(), NewDense(10, 4, rng)},
	)
	inputs := []*tensor.Tensor{randInput(rng, 1, 6, 6), randInput(rng, 1, 6, 6)}
	gradCheck(t, m, inputs, 3, 1e-4)
}

func TestConvOutShapeMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, cfg := range [][8]int{
		{1, 16, 3, 3, 1, 1, 1, 1},
		{3, 8, 3, 3, 2, 2, 1, 1},
		{2, 4, 5, 5, 1, 1, 0, 0},
	} {
		l := NewConv2D(cfg[0], cfg[1], cfg[2], cfg[3], cfg[4], cfg[5], cfg[6], cfg[7], rng)
		in := randInput(rng, cfg[0], 13, 11)
		out := l.Forward(in, false)
		want := l.OutShape(in.Shape())
		got := out.Shape()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("conv %v: OutShape %v, Forward %v", cfg, want, got)
			}
		}
	}
}

func TestMaxPoolKnownValues(t *testing.T) {
	in := tensor.FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	p := NewMaxPool2D(2, 2)
	out := p.Forward(in, false)
	want := []float64{6, 8, 14, 16}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Fatalf("pool: %v, want %v", out.Data(), want)
		}
	}
}

func TestMaxPoolBackwardRouting(t *testing.T) {
	in := tensor.FromSlice([]float64{1, 9, 3, 4}, 1, 2, 2)
	p := NewMaxPool2D(2, 2)
	p.Forward(in, true)
	g := p.Backward(tensor.FromSlice([]float64{5}, 1, 1, 1))
	want := []float64{0, 5, 0, 0}
	for i, w := range want {
		if g.Data()[i] != w {
			t.Fatalf("pool backward: %v, want %v", g.Data(), want)
		}
	}
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU()
	out := r.Forward(tensor.FromSlice([]float64{-1, 0, 2}, 3), true)
	if out.Data()[0] != 0 || out.Data()[2] != 2 {
		t.Fatalf("relu forward: %v", out.Data())
	}
	g := r.Backward(tensor.FromSlice([]float64{10, 10, 10}, 3))
	if g.Data()[0] != 0 || g.Data()[1] != 0 || g.Data()[2] != 10 {
		t.Fatalf("relu backward: %v", g.Data())
	}
}

func TestSoftmaxProperties(t *testing.T) {
	p := Softmax([]float64{1000, 1000, 1000}) // stability under large logits
	for _, v := range p {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("softmax uniform: %v", p)
		}
	}
	p = Softmax([]float64{0, 100})
	if p[1] < 0.999 {
		t.Fatalf("softmax peaked: %v", p)
	}
}

func TestCrossEntropyGradSumsToZero(t *testing.T) {
	logits := tensor.FromSlice([]float64{0.3, -1, 2}, 3)
	loss, g := CrossEntropyLoss(logits, 2)
	if loss <= 0 {
		t.Fatalf("loss %v", loss)
	}
	s := 0.0
	for _, v := range g.Data() {
		s += v
	}
	if math.Abs(s) > 1e-12 {
		t.Fatalf("grad sum %v, want 0", s)
	}
}

func TestAccuracy(t *testing.T) {
	if Accuracy([]int{1, 2, 3}, []int{1, 0, 3}) != 2.0/3 {
		t.Fatal("accuracy wrong")
	}
	if Accuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy")
	}
}

// Training must actually learn: a two-tower model on a synthetic task
// where tower 1's input determines the class.
func makeToyProblem(rng *rand.Rand, n int) []Sample {
	samples := make([]Sample, n)
	for i := range samples {
		label := rng.Intn(3)
		a := tensor.New(1, 6, 6)
		// Class signature: a horizontal stripe at row = label*2.
		for x := 0; x < 6; x++ {
			a.Set(1, 0, label*2, x)
		}
		// Add noise.
		for j := range a.Data() {
			a.Data()[j] += rng.NormFloat64() * 0.1
		}
		b := randInput(rng, 1, 6, 6) // pure noise tower
		samples[i] = Sample{Inputs: []*tensor.Tensor{a, b}, Label: label}
	}
	return samples
}

func toyModel(rng *rand.Rand) *Model {
	towerA := []Layer{NewConv2D(1, 4, 3, 3, 1, 1, 1, 1, rng), NewReLU(), NewMaxPool2D(2, 2), NewFlatten()}
	towerB := []Layer{NewConv2D(1, 4, 3, 3, 1, 1, 1, 1, rng), NewReLU(), NewMaxPool2D(2, 2), NewFlatten()}
	return NewModel([][]Layer{towerA, towerB}, []Layer{NewDense(2*4*3*3, 16, rng), NewReLU(), NewDense(16, 3, rng)})
}

func TestTrainingLearnsToyProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	train := makeToyProblem(rng, 150)
	test := makeToyProblem(rng, 60)
	m := toyModel(rng)
	tr := NewTrainer(m, NewAdam(0.005), 16, 1)
	accBefore, _ := evaluateRef(m, test, 1)
	for e := 0; e < 12; e++ {
		if _, err := tr.TrainEpochCtx(context.Background(), train); err != nil {
			t.Fatal(err)
		}
	}
	accAfter, loss := evaluateRef(m, test, 1)
	if accAfter < 0.9 {
		t.Fatalf("accuracy after training %v (before %v), loss %v", accAfter, accBefore, loss)
	}
}

// The parallel batch gradient must equal the serial one: training with 1
// worker and with 4 workers from identical initial states gives
// identical parameters. One batch is one Adam step, whose update is
// about LR·sign(g), so the weights alone would only compare signs; the
// first moment m = (1−β1)·g/B carries the batch gradient itself and is
// compared too.
func TestDataParallelGradientExactness(t *testing.T) {
	build := func() (*Model, []Sample) {
		rng := rand.New(rand.NewSource(9))
		m := toyModel(rng)
		samples := makeToyProblem(rng, 32)
		return m, samples
	}
	m1, s1 := build()
	m4, s4 := build()
	t1 := NewTrainer(m1, NewAdam(0.01), 32, 3)
	t1.Workers = 1
	t4 := NewTrainer(m4, NewAdam(0.01), 32, 3)
	t4.Workers = 4
	if _, err := t1.TrainEpochCtx(context.Background(), s1); err != nil {
		t.Fatal(err)
	}
	if _, err := t4.TrainEpochCtx(context.Background(), s4); err != nil {
		t.Fatal(err)
	}
	p1 := m1.Params()
	p4 := m4.Params()
	g1 := t1.Opt.StateSnapshot(p1).Slots["m"]
	g4 := t4.Opt.StateSnapshot(p4).Slots["m"]
	nonzero := 0
	for i := range p1 {
		if len(g1[i]) != p1[i].Value.Size() || len(g4[i]) != len(g1[i]) {
			t.Fatalf("param %d: first moment has %d (1 worker) and %d (4 workers) entries, want %d",
				i, len(g1[i]), len(g4[i]), p1[i].Value.Size())
		}
		for j := range g1[i] {
			if math.Abs(g1[i][j]-g4[i][j]) > 1e-9*(1+math.Abs(g1[i][j])) {
				t.Fatalf("param %d[%d]: batch gradient moment diverged between 1 and 4 workers: %v vs %v",
					i, j, g1[i][j], g4[i][j])
			}
			if g1[i][j] != 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Fatal("the batch gradient is zero everywhere; the comparison checks nothing")
	}
	for i := range p1 {
		d1, d4 := p1[i].Value.Data(), p4[i].Value.Data()
		for j := range d1 {
			if math.Abs(d1[j]-d4[j]) > 1e-9 {
				t.Fatalf("param %d diverged between 1 and 4 workers: %v vs %v", i, d1[j], d4[j])
			}
		}
	}
}

// TestEpochOnSliceEqualsEpochOnStream: at epoch 0 the slice and the
// stream shuffle seeds coincide, so one epoch of TrainEpochCtx and one
// of TrainEpochStreamCtx over the same samples as a single chunk must
// train the same model bit for bit — every weight and the returned loss.
func TestEpochOnSliceEqualsEpochOnStream(t *testing.T) {
	for _, workers := range []int{1, 2} {
		build := func() (*Trainer, []Sample) {
			rng := rand.New(rand.NewSource(12))
			m := toyModel(rng)
			tr := NewTrainer(m, NewAdam(0.01), 8, 5)
			tr.Workers = workers
			return tr, makeToyProblem(rng, 45)
		}
		onSlice, samples := build()
		onStream, _ := build()
		ls, err := onSlice.TrainEpochCtx(context.Background(), samples)
		if err != nil {
			t.Fatal(err)
		}
		lt, err := onStream.TrainEpochStreamCtx(context.Background(), SliceSource(samples))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(ls) != math.Float64bits(lt) {
			t.Fatalf("workers=%d: loss %v on a slice, %v on a stream", workers, ls, lt)
		}
		ps, pt := onSlice.Model.Params(), onStream.Model.Params()
		for i := range ps {
			a, b := ps[i].Value.Data(), pt[i].Value.Data()
			for j := range a {
				if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
					t.Fatalf("workers=%d: param %d[%d] is %v on a slice, %v on a stream", workers, i, j, a[j], b[j])
				}
			}
		}
	}
}

func TestTrainStepsReturnsLosses(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := toyModel(rng)
	tr := NewTrainer(m, NewAdam(0.003), 8, 2)
	losses, err := tr.TrainSteps(makeToyProblem(rng, 40), 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 20 {
		t.Fatalf("got %d losses", len(losses))
	}
	// Loss should broadly decrease.
	if losses[19] >= losses[0] {
		t.Logf("warning: loss did not decrease: %v -> %v", losses[0], losses[19])
	}
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("bad loss %v", l)
		}
	}
}

func TestFrozenParamsDoNotMove(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := toyModel(rng)
	m.FreezeTowers(true)
	before := make([][]float64, 0)
	for _, p := range m.TowerParams() {
		before = append(before, append([]float64(nil), p.Value.Data()...))
	}
	head := m.Params()[len(m.TowerParams())]
	headBefore := append([]float64(nil), head.Value.Data()...)
	tr := NewTrainer(m, NewAdam(0.01), 8, 4)
	tr.TrainEpochCtx(context.Background(), makeToyProblem(rng, 24))
	for i, p := range m.TowerParams() {
		for j, v := range p.Value.Data() {
			if v != before[i][j] {
				t.Fatal("frozen tower parameter moved")
			}
		}
	}
	moved := false
	for j, v := range head.Value.Data() {
		if v != headBefore[j] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("head parameters did not move")
	}
}

func TestAdamStepSkipsFrozen(t *testing.T) {
	p := newParam("w", tensor.FromSlice([]float64{1, 2}, 2))
	p.Grad.Data()[0] = 1
	p.Grad.Data()[1] = 1
	frozen := newParam("f", tensor.FromSlice([]float64{5}, 1))
	frozen.Frozen = true
	frozen.Grad.Data()[0] = 100
	NewAdam(0.1).Step([]*Param{p, frozen}, 1)
	if frozen.Value.Data()[0] != 5 {
		t.Fatal("Adam moved a frozen param")
	}
	if p.Value.Data()[0] == 1 {
		t.Fatal("Adam did not move a live param")
	}
}

func TestAdamWeightDecayShrinksWeights(t *testing.T) {
	p := newParam("w", tensor.FromSlice([]float64{10}, 1))
	opt := NewAdam(0.1)
	opt.WeightDecay = 0.5
	// Zero gradient: only decay acts.
	opt.Step([]*Param{p}, 1)
	if v := p.Value.Data()[0]; v >= 10 {
		t.Fatalf("weight not decayed: %v", v)
	}
}

// TestLoadRejectsRemovedLayerTypes: an artifact written when the
// framework still had average pooling and leaky ReLU must fail to load
// with the unknown-layer error, not decode into something else.
func TestLoadRejectsRemovedLayerTypes(t *testing.T) {
	for _, spec := range []LayerSpec{
		{Type: "avgpool", Ints: []int{2, 2}},
		{Type: "leakyrelu", Rate: 0.05},
	} {
		var buf bytes.Buffer
		blob := modelBlob{Towers: [][]LayerSpec{{spec, {Type: "flatten"}}}}
		if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		if want := `unknown layer type "` + spec.Type + `"`; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s artifact: got %v, want an error containing %q", spec.Type, err, want)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := toyModel(rng)
	m.FreezeTowers(true)
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in := []*tensor.Tensor{randInput(rng, 1, 6, 6), randInput(rng, 1, 6, 6)}
	a := m.Forward(in, false)
	b := m2.Forward(in, false)
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("loaded model differs from saved")
		}
	}
	for i, p := range m2.Params() {
		if p.Frozen != m.Params()[i].Frozen {
			t.Fatal("frozen flags lost")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := toyModel(rng)
	c, err := Clone(m)
	if err != nil {
		t.Fatal(err)
	}
	c.Params()[0].Value.Data()[0] += 100
	if m.Params()[0].Value.Data()[0] == c.Params()[0].Value.Data()[0] {
		t.Fatal("clone shares weights")
	}
}

func TestReplicaSharesValues(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := toyModel(rng)
	r := m.Replica()
	m.Params()[0].Value.Data()[0] = 42
	if r.Params()[0].Value.Data()[0] != 42 {
		t.Fatal("replica does not share values")
	}
	r.Params()[0].Grad.Data()[0] = 7
	if m.Params()[0].Grad.Data()[0] == 7 {
		t.Fatal("replica shares gradients")
	}
}

func TestModelSummary(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := toyModel(rng)
	s := m.Summary([][]int{{1, 6, 6}, {1, 6, 6}})
	if s == "" {
		t.Fatal("empty summary")
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	d := NewDropout(0.5, 1)
	in := tensor.New(1000)
	in.Fill(1)
	out := d.Forward(in, true)
	zeros := 0
	for _, v := range out.Data() {
		if v == 0 {
			zeros++
		}
	}
	if zeros < 300 || zeros > 700 {
		t.Fatalf("dropout zeroed %d of 1000", zeros)
	}
	evalOut := d.Forward(in, false)
	for _, v := range evalOut.Data() {
		if v != 1 {
			t.Fatal("dropout must be identity at inference")
		}
	}
}

func TestForwardWrongTowerCountPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m := toyModel(rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Forward([]*tensor.Tensor{randInput(rng, 1, 6, 6)}, false)
}

// A frozen tower is a fixed function: training the head on the tower's
// codes must match training on the raw inputs bit for bit — losses,
// head weights, and the gradient norm, which counts only the gradient
// the optimiser applies (with the frozen towers' gradients summed in,
// the inputs path would report a larger norm than the codes path).
func TestCodesMatchInputsOnFrozenTowers(t *testing.T) {
	build := func() (*Trainer, []Sample) {
		rng := rand.New(rand.NewSource(12))
		m := toyModel(rng)
		m.FreezeTowers(true)
		tr := NewTrainer(m, NewAdam(0.003), 8, 2)
		tr.Workers = 2
		return tr, makeToyProblem(rng, 40)
	}
	onInputs, inputs := build()
	onCodes, codes := build()
	if !onCodes.Model.TowersFrozen() {
		t.Fatal("TowersFrozen false after FreezeTowers(true)")
	}
	for i, s := range codes {
		codes[i] = Sample{Codes: onCodes.Model.Codes(s.Inputs), Label: s.Label}
	}
	towers := onCodes.Model.TowerParams()
	before := make([][]float64, len(towers))
	for i, p := range towers {
		before[i] = append([]float64(nil), p.Value.Data()...)
	}

	for step := 0; step < 15; step++ {
		li, err := onInputs.TrainSteps(inputs, 1)
		if err != nil {
			t.Fatal(err)
		}
		lc, err := onCodes.TrainSteps(codes, 1)
		if err != nil {
			t.Fatal(err)
		}
		if li[0] != lc[0] {
			t.Fatalf("step %d: loss %v on inputs, %v on codes", step, li[0], lc[0])
		}
		if gi, gc := onInputs.lastGradNorm, onCodes.lastGradNorm; gi != gc || gi == 0 {
			t.Fatalf("step %d: grad norm %v on inputs, %v on codes", step, gi, gc)
		}
	}
	hi := onInputs.Model.Params()[len(onInputs.Model.TowerParams()):]
	hc := onCodes.Model.Params()[len(towers):]
	for i := range hi {
		a, b := hi[i].Value.Data(), hc[i].Value.Data()
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("head param %d[%d]: %v on inputs, %v on codes", i, j, a[j], b[j])
			}
		}
	}
	for i, p := range towers {
		for j, v := range p.Value.Data() {
			if v != before[i][j] {
				t.Fatalf("tower param %d[%d] moved", i, j)
			}
		}
		for _, g := range p.Grad.Data() {
			if g != 0 {
				t.Fatalf("codes samples back-propagated into tower param %d", i)
			}
		}
	}
	// Evaluation takes either kind of sample too.
	ai, li := evaluateRef(onInputs.Model, inputs, 2)
	ac, lc := evaluateRef(onCodes.Model, codes, 2)
	if ai != ac || li != lc {
		t.Fatalf("evaluate: %v/%v on inputs, %v/%v on codes", ai, li, ac, lc)
	}
}
