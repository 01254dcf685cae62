package nn

import (
	"math"

	"repro/internal/tensor"
)

// Softmax returns the softmax of the logits, computed stably.
func Softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	softmax(out, logits)
	return out
}

// softmax writes the softmax of the logits into dst.
func softmax(dst, logits []float64) {
	max := math.Inf(-1)
	for _, v := range logits {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		dst[i] = math.Exp(v - max)
		sum += dst[i]
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// CrossEntropyLoss computes the softmax cross-entropy loss for one
// sample (the paper's Figure 11 loss function) and the gradient of the
// loss with respect to the logits (probs − onehot).
func CrossEntropyLoss(logits *tensor.Tensor, label int) (loss float64, grad *tensor.Tensor) {
	grad = tensor.New(logits.Size())
	return crossEntropyInto(grad.Data(), logits.Data(), label), grad
}

// crossEntropyInto is CrossEntropyLoss writing the gradient into the
// caller's grad, which has one element per logit.
func crossEntropyInto(grad, logits []float64, label int) float64 {
	softmax(grad, logits)
	p := grad[label]
	if p < 1e-15 {
		p = 1e-15
	}
	grad[label] -= 1
	return -math.Log(p)
}

// Accuracy returns the fraction of (prediction, label) pairs that match.
func Accuracy(pred, labels []int) float64 {
	if len(pred) != len(labels) || len(pred) == 0 {
		return 0
	}
	hits := 0
	for i := range pred {
		if pred[i] == labels[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(pred))
}
