// Package dtree implements the CART decision-tree classifier that stands
// in for the paper's state-of-the-art baseline (the SMAT decision tree
// of Li et al. PLDI'13 and the classification tree of Sedaghati et al.
// ICS'15): Gini-impurity splits on hand-crafted feature vectors with
// depth and leaf-size regularisation.
package dtree

import (
	"fmt"
	"sort"
)

// Config controls tree growth. The defaults mirror the shallow,
// regularised trees of the baseline papers (deep unpruned trees overfit
// the small minority classes badly).
type Config struct {
	MaxDepth       int
	MinLeafSamples int
	MinGain        float64
}

// DefaultConfig is the baseline configuration.
func DefaultConfig() Config {
	return Config{MaxDepth: 10, MinLeafSamples: 5, MinGain: 1e-4}
}

// Tree is a trained CART classifier.
type Tree struct {
	NumClasses int
	root       *node
	cfg        Config
}

type node struct {
	// Leaf payload.
	class  int
	counts []int
	// Split payload (children nil for leaves).
	feature   int
	threshold float64
	left      *node
	right     *node
}

// Train grows a tree on the feature matrix X (one row per sample) and
// labels y in [0, numClasses).
func Train(X [][]float64, y []int, numClasses int, cfg Config) (*Tree, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("dtree: bad training set: %d samples, %d labels", len(X), len(y))
	}
	for _, label := range y {
		if label < 0 || label >= numClasses {
			return nil, fmt.Errorf("dtree: label %d out of range [0,%d)", label, numClasses)
		}
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = DefaultConfig().MaxDepth
	}
	if cfg.MinLeafSamples <= 0 {
		cfg.MinLeafSamples = 1
	}
	t := &Tree{NumClasses: numClasses, cfg: cfg}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.grow(X, y, idx, 0)
	return t, nil
}

func (t *Tree) grow(X [][]float64, y []int, idx []int, depth int) *node {
	counts := make([]int, t.NumClasses)
	for _, i := range idx {
		counts[y[i]]++
	}
	n := &node{counts: counts, class: argmax(counts)}
	if depth >= t.cfg.MaxDepth || len(idx) < 2*t.cfg.MinLeafSamples || pure(counts) {
		return n
	}
	bestGain := t.cfg.MinGain
	bestFeat, bestThresh := -1, 0.0
	parentImp := gini(counts, len(idx))
	nfeat := len(X[idx[0]])
	order := make([]int, len(idx))
	for f := 0; f < nfeat; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })
		leftCounts := make([]int, t.NumClasses)
		rightCounts := append([]int(nil), counts...)
		for pos := 0; pos < len(order)-1; pos++ {
			i := order[pos]
			leftCounts[y[i]]++
			rightCounts[y[i]]--
			nl := pos + 1
			nr := len(order) - nl
			if nl < t.cfg.MinLeafSamples || nr < t.cfg.MinLeafSamples {
				continue
			}
			v, vNext := X[order[pos]][f], X[order[pos+1]][f]
			if v == vNext {
				continue // cannot split between equal values
			}
			gain := parentImp -
				(float64(nl)*gini(leftCounts, nl)+float64(nr)*gini(rightCounts, nr))/float64(len(order))
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (v + vNext) / 2
			}
		}
	}
	if bestFeat < 0 {
		return n
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][bestFeat] <= bestThresh {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return n
	}
	n.feature = bestFeat
	n.threshold = bestThresh
	n.left = t.grow(X, y, li, depth+1)
	n.right = t.grow(X, y, ri, depth+1)
	return n
}

// Predict classifies one feature vector.
func (t *Tree) Predict(x []float64) int {
	n := t.root
	for n.left != nil {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}

// Nodes returns the total node count.
func (t *Tree) Nodes() int { return nodesOf(t.root) }

func nodesOf(n *node) int {
	if n == nil {
		return 0
	}
	return 1 + nodesOf(n.left) + nodesOf(n.right)
}

func gini(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	s := 1.0
	for _, c := range counts {
		p := float64(c) / float64(total)
		s -= p * p
	}
	return s
}

func pure(counts []int) bool {
	nonzero := 0
	for _, c := range counts {
		if c > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

func argmax(counts []int) int {
	best := 0
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
	}
	return best
}
