package nn

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/tensor"
)

// Dense is a fully connected layer over flattened inputs: out = W·x + b,
// with W of shape (Out, In).
type Dense struct {
	In, Out int
	W, B    *Param
	// Train-mode state: the input the last Forward(train) read, and the
	// buffers the output and the input gradient are written into, kept
	// from sample to sample.
	lastIn      []float64
	out, gradIn *tensor.Tensor
}

// NewDense builds a fully connected layer with He-initialised weights.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	w := tensor.New(out, in)
	heInit(w, in, rng)
	return &Dense{In: in, Out: out, W: newParam("dense.w", w), B: newParam("dense.b", tensor.New(out))}
}

// Name describes the layer.
func (l *Dense) Name() string { return fmt.Sprintf("Dense(%d->%d)", l.In, l.Out) }

// OutShape is always (Out).
func (l *Dense) OutShape([]int) []int { return []int{l.Out} }

// Forward computes W·x + b; any input shape with In elements is
// accepted (implicit flatten).
func (l *Dense) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	if in.Size() != l.In {
		panic(fmt.Sprintf("nn: %s got %d inputs", l.Name(), in.Size()))
	}
	x := in.Data()
	if !train {
		out := tensor.New(l.Out)
		denseRows(out.Data(), l.W.Value.Data(), l.B.Value.Data(), x)
		return out
	}
	if l.out == nil {
		l.out = tensor.New(l.Out)
	}
	denseRows(l.out.Data(), l.W.Value.Data(), l.B.Value.Data(), x)
	l.lastIn = x
	return l.out
}

// denseRows computes dst[o] = b[o] + Σᵢ w[o·n+i]·x[i], n = len(x), four
// rows per pass over x. Each row keeps one sum in the order a
// row-at-a-time loop adds it — bias first, then the inputs by index —
// so every output is that loop's to the bit; the four sums are
// independent, so their multiply-adds overlap instead of each waiting
// on the one before it.
func denseRows(dst, w, b, x []float64) {
	n := len(x)
	o := 0
	for ; o+4 <= len(dst); o += 4 {
		w0, w1, w2, w3 := w[o*n:(o+1)*n], w[(o+1)*n:(o+2)*n], w[(o+2)*n:(o+3)*n], w[(o+3)*n:(o+4)*n]
		w0, w1, w2, w3 = w0[:len(x)], w1[:len(x)], w2[:len(x)], w3[:len(x)]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		for i, xi := range x {
			s0 += w0[i] * xi
			s1 += w1[i] * xi
			s2 += w2[i] * xi
			s3 += w3[i] * xi
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
	}
	for ; o < len(dst); o++ {
		row := w[o*n : (o+1)*n]
		row = row[:len(x)]
		s := b[o]
		for i, xi := range x {
			s += row[i] * xi
		}
		dst[o] = s
	}
}

// Backward accumulates dW = g⊗x, dB = g and returns Wᵀ·g.
func (l *Dense) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	l.backwardParams(gradOut)
	g := gradOut.Data()
	if l.gradIn == nil {
		l.gradIn = tensor.New(l.In)
	}
	gid := l.gradIn.Data()
	clear(gid)
	wd := l.W.Value.Data()
	for o := 0; o < l.Out; o++ {
		go_ := g[o]
		if go_ == 0 {
			continue
		}
		row := wd[o*l.In : (o+1)*l.In]
		row = row[:len(gid)]
		for i, v := range row {
			gid[i] += go_ * v
		}
	}
	return l.gradIn
}

// backwardParams is Backward without the input gradient: it
// accumulates dW = g⊗x and dB = g, for a layer nothing beneath reads
// (Model.Backward after a codes sample). A row whose gradient is
// exactly 0 would add ±0 to each of its dW elements, which changes no
// bit — a gradient zeroed to +0 and only added to never becomes −0 — so
// it is skipped; unless x holds a NaN or Inf, where 0·x is NaN and must
// reach dW, and through it the divergence gate.
func (l *Dense) backwardParams(gradOut *tensor.Tensor) {
	if l.lastIn == nil {
		panic("nn: Dense.Backward without Forward(train)")
	}
	g := gradOut.Data()
	x := l.lastIn
	wg := l.W.Grad.Data()
	bg := l.B.Grad.Data()
	skipZero := allFinite(x)
	for o := 0; o < l.Out; o++ {
		go_ := g[o]
		bg[o] += go_
		if go_ == 0 && skipZero {
			continue
		}
		row := wg[o*l.In : (o+1)*l.In]
		row = row[:len(x)]
		for i, xi := range x {
			row[i] += go_ * xi
		}
	}
}

// allFinite reports whether x holds no NaN and no ±Inf (v−v is 0 for a
// finite v and NaN otherwise).
func allFinite(x []float64) bool {
	for _, v := range x {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// Params returns the weight and bias.
func (l *Dense) Params() []*Param { return []*Param{l.W, l.B} }

// Replica shares parameter values with private gradients and state.
func (l *Dense) Replica() Layer {
	c := *l
	c.W = l.W.replica()
	c.B = l.B.replica()
	c.lastIn, c.out, c.gradIn = nil, nil, nil
	return &c
}

// ReLU is the rectified linear activation.
type ReLU struct {
	// Train-mode state: which inputs were positive, and the output and
	// input-gradient buffers.
	lastMask    []bool
	out, gradIn *tensor.Tensor
}

// NewReLU builds a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name describes the layer.
func (l *ReLU) Name() string { return "ReLU" }

// OutShape is the input shape.
func (l *ReLU) OutShape(in []int) []int { return in }

// Forward clamps negatives to zero.
func (l *ReLU) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		out := in.Clone()
		d := out.Data()
		for i, v := range d {
			if !(v > 0) {
				d[i] = 0
			}
		}
		return out
	}
	l.out = buffer(l.out, in.Shape())
	if cap(l.lastMask) < in.Size() {
		l.lastMask = make([]bool, in.Size())
	}
	mask := l.lastMask[:in.Size()]
	d := l.out.Data()
	for i, v := range in.Data() {
		mask[i] = v > 0
		if mask[i] {
			d[i] = v
		} else {
			d[i] = 0
		}
	}
	l.lastMask = mask
	return l.out
}

// Backward gates gradients by the activation mask.
func (l *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if l.lastMask == nil {
		panic("nn: ReLU.Backward without Forward(train)")
	}
	l.gradIn = buffer(l.gradIn, l.out.Shape())
	d := l.gradIn.Data()
	for i, g := range gradOut.Data() {
		if l.lastMask[i] {
			d[i] = g
		} else {
			d[i] = 0
		}
	}
	return l.gradIn
}

// Params returns nil (stateless).
func (l *ReLU) Params() []*Param { return nil }

// Replica returns a fresh ReLU.
func (l *ReLU) Replica() Layer { return NewReLU() }

// Flatten reshapes any input to a vector.
type Flatten struct {
	lastShape []int
}

// NewFlatten builds a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name describes the layer.
func (l *Flatten) Name() string { return "Flatten" }

// OutShape is the input volume as one dimension.
func (l *Flatten) OutShape(in []int) []int {
	n := 1
	for _, d := range in {
		n *= d
	}
	return []int{n}
}

// Forward reshapes to a vector (sharing storage).
func (l *Flatten) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		l.lastShape = in.Shape()
	}
	return in.Reshape(in.Size())
}

// Backward restores the original shape.
func (l *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if l.lastShape == nil {
		panic("nn: Flatten.Backward without Forward(train)")
	}
	return gradOut.Reshape(l.lastShape...)
}

// Params returns nil (stateless).
func (l *Flatten) Params() []*Param { return nil }

// Replica returns a fresh Flatten.
func (l *Flatten) Replica() Layer { return NewFlatten() }

// Dropout randomly zeroes a fraction of activations during training and
// scales the survivors (inverted dropout); inference is the identity.
type Dropout struct {
	Rate     float64
	seed     int64
	rng      *rand.Rand
	replicas *atomic.Int64 // numbers the replica streams of this layer's lineage
	// Train-mode state: the last mask's per-element scale (nil when the
	// rate is 0), and the output and input-gradient buffers.
	lastScale   []float64
	out, gradIn *tensor.Tensor
}

// NewDropout builds a dropout layer with its own deterministic RNG.
func NewDropout(rate float64, seed int64) *Dropout {
	return newDropout(rate, seed, new(atomic.Int64))
}

func newDropout(rate float64, seed int64, replicas *atomic.Int64) *Dropout {
	return &Dropout{Rate: rate, seed: seed, rng: rand.New(rand.NewSource(seed)), replicas: replicas}
}

// Name describes the layer.
func (l *Dropout) Name() string { return fmt.Sprintf("Dropout(%.2f)", l.Rate) }

// OutShape is the input shape.
func (l *Dropout) OutShape(in []int) []int { return in }

// Forward applies inverted dropout when training. The inference path
// (train=false) must not touch any layer state: Predict is documented
// as safe for concurrent callers sharing one model, and even a
// same-value write to lastScale here is a data race under that
// contract.
func (l *Dropout) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return in
	}
	if l.Rate <= 0 {
		l.lastScale = nil
		return in
	}
	l.out = buffer(l.out, in.Shape())
	if cap(l.lastScale) < in.Size() {
		l.lastScale = make([]float64, in.Size())
	}
	scale := l.lastScale[:in.Size()]
	d := l.out.Data()
	keep := 1 - l.Rate
	for i, v := range in.Data() {
		if l.rng.Float64() < keep {
			scale[i] = 1 / keep
			d[i] = v * scale[i]
		} else {
			scale[i] = 0
			d[i] = 0
		}
	}
	l.lastScale = scale
	return l.out
}

// Backward applies the same mask to gradients.
func (l *Dropout) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if l.lastScale == nil {
		return gradOut
	}
	l.gradIn = buffer(l.gradIn, l.out.Shape())
	d := l.gradIn.Data()
	for i, g := range gradOut.Data() {
		d[i] = g * l.lastScale[i]
	}
	return l.gradIn
}

// Params returns nil (stateless).
func (l *Dropout) Params() []*Param { return nil }

// Replica returns a dropout layer with a derived, independent RNG
// stream. Streams are numbered per lineage — the layer NewDropout made
// and its replicas share one counter — so a model's dropout depends on
// its own history, not on how many replicas the process made before
// (nn.Clone rebuilds the layers, so a clone starts afresh). Replicas may
// be created from multiple goroutines (parallel inference), so the
// derivation must not touch the parent's rand.Rand, which is not
// thread-safe.
func (l *Dropout) Replica() Layer {
	n := l.replicas.Add(1)
	return newDropout(l.Rate, l.seed+n*0x9E3779B9, l.replicas)
}
