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
	lastIn  *tensor.Tensor
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
	x := in.Reshape(l.In)
	out := tensor.New(l.Out)
	od := out.Data()
	wd := l.W.Value.Data()
	xd := x.Data()
	for o := 0; o < l.Out; o++ {
		s := l.B.Value.Data()[o]
		row := wd[o*l.In : (o+1)*l.In]
		for i, v := range row {
			s += v * xd[i]
		}
		od[o] = s
	}
	if train {
		l.lastIn = x
	}
	return out
}

// Backward accumulates dW = g⊗x, dB = g and returns Wᵀ·g.
func (l *Dense) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if l.lastIn == nil {
		panic("nn: Dense.Backward without Forward(train)")
	}
	g := gradOut.Data()
	x := l.lastIn.Data()
	wg := l.W.Grad.Data()
	bg := l.B.Grad.Data()
	for o := 0; o < l.Out; o++ {
		go_ := g[o]
		bg[o] += go_
		row := wg[o*l.In : (o+1)*l.In]
		for i := range row {
			row[i] += go_ * x[i]
		}
	}
	gi := tensor.New(l.In)
	gid := gi.Data()
	wd := l.W.Value.Data()
	for o := 0; o < l.Out; o++ {
		go_ := g[o]
		if go_ == 0 {
			continue
		}
		row := wd[o*l.In : (o+1)*l.In]
		for i, v := range row {
			gid[i] += go_ * v
		}
	}
	return gi
}

// Params returns the weight and bias.
func (l *Dense) Params() []*Param { return []*Param{l.W, l.B} }

// Replica shares parameter values with private gradients and state.
func (l *Dense) Replica() Layer {
	c := *l
	c.W = l.W.replica()
	c.B = l.B.replica()
	c.lastIn = nil
	return &c
}

// ReLU is the rectified linear activation.
type ReLU struct {
	lastMask  []bool
	lastShape []int
}

// NewReLU builds a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name describes the layer.
func (l *ReLU) Name() string { return "ReLU" }

// OutShape is the input shape.
func (l *ReLU) OutShape(in []int) []int { return in }

// Forward clamps negatives to zero.
func (l *ReLU) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	out := in.Clone()
	d := out.Data()
	var mask []bool
	if train {
		mask = make([]bool, len(d))
	}
	for i, v := range d {
		if v > 0 {
			if train {
				mask[i] = true
			}
		} else {
			d[i] = 0
		}
	}
	if train {
		l.lastMask = mask
		l.lastShape = in.Shape()
	}
	return out
}

// Backward gates gradients by the activation mask.
func (l *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if l.lastMask == nil {
		panic("nn: ReLU.Backward without Forward(train)")
	}
	grad := gradOut.Clone()
	d := grad.Data()
	for i := range d {
		if !l.lastMask[i] {
			d[i] = 0
		}
	}
	return grad.Reshape(l.lastShape...)
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
	Rate      float64
	seed      int64
	rng       *rand.Rand
	replicas  *atomic.Int64 // numbers the replica streams of this layer's lineage
	lastScale []float64
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
	out := in.Clone()
	d := out.Data()
	scale := make([]float64, len(d))
	keep := 1 - l.Rate
	for i := range d {
		if l.rng.Float64() < keep {
			scale[i] = 1 / keep
			d[i] *= scale[i]
		} else {
			d[i] = 0
		}
	}
	l.lastScale = scale
	return out
}

// Backward applies the same mask to gradients.
func (l *Dropout) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if l.lastScale == nil {
		return gradOut
	}
	grad := gradOut.Clone()
	d := grad.Data()
	for i := range d {
		d[i] *= l.lastScale[i]
	}
	return grad
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
