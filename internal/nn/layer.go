// Package nn is a from-scratch convolutional neural network framework:
// conv/pool/dense layers with backpropagation, softmax cross-entropy,
// the Adam optimiser, goroutine data-parallel minibatch training,
// and gob serialisation. It substitutes for the TensorFlow stack the
// paper's artifact uses; the selector package composes it into the
// paper's early- and late-merging CNN structures.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/tensor"
)

// Param is one learnable tensor with its gradient accumulator. Replicas
// of a layer share the Value and own private Grads; Frozen parameters
// are skipped by optimisers (the "top evolvement" transfer-learning
// mechanism of Section 6).
type Param struct {
	Name   string
	Value  *tensor.Tensor
	Grad   *tensor.Tensor
	Frozen bool
}

// newParam allocates a parameter with a zero gradient of the same shape.
func newParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// replica returns a Param sharing the Value (and Frozen flag) with a
// private gradient buffer.
func (p *Param) replica() *Param {
	return &Param{Name: p.Name, Value: p.Value, Grad: tensor.New(p.Value.Shape()...), Frozen: p.Frozen}
}

// Layer is one differentiable stage. A layer instance is stateful
// (Forward caches what Backward needs) and therefore serves one
// goroutine; Replica() produces a copy sharing parameter values for
// data-parallel training.
type Layer interface {
	// Name identifies the layer type and shape for printing/serialising.
	Name() string
	// OutShape computes the output shape for a given input shape.
	OutShape(in []int) []int
	// Forward computes the layer output, caching activations when
	// train is set so a subsequent Backward can run. In train mode the
	// output may be a buffer the layer keeps, valid until its next
	// Forward; inference (train=false) writes no layer state.
	Forward(in *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes dL/dOutput, accumulates parameter gradients,
	// and returns dL/dInput, which may be a buffer the layer keeps,
	// valid until its next Backward. It must follow a Forward with
	// train=true.
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's learnable parameters (nil for
	// stateless layers).
	Params() []*Param
	// Replica returns a stateful copy sharing parameter values.
	Replica() Layer
}

// heInit fills t with He-normal initialisation for fanIn inputs, the
// standard for ReLU networks.
func heInit(t *tensor.Tensor, fanIn int, rng *rand.Rand) {
	std := 1.0
	if fanIn > 0 {
		std = math.Sqrt(2.0 / float64(fanIn))
	}
	d := t.Data()
	for i := range d {
		d[i] = rng.NormFloat64() * std
	}
}

// buffer returns t if it has the given shape and a new tensor of that
// shape otherwise: a train-mode buffer is sized by its first use and
// reused while the shape holds.
func buffer(t *tensor.Tensor, shape []int) *tensor.Tensor {
	if t != nil && slices.Equal(t.Shape(), shape) {
		return t
	}
	return tensor.New(shape...)
}

func shapeString(s []int) string {
	return fmt.Sprintf("%v", s)
}
