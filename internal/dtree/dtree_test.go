package dtree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, nil, 2, DefaultConfig()); err == nil {
		t.Fatal("empty set accepted")
	}
	if _, err := Train([][]float64{{1}}, []int{5}, 2, DefaultConfig()); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if _, err := Train([][]float64{{1}, {2}}, []int{0}, 2, DefaultConfig()); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestLearnsAxisAlignedSplit(t *testing.T) {
	var X [][]float64
	var y []int
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		a, b := rng.Float64(), rng.Float64()
		X = append(X, []float64{a, b})
		if a > 0.5 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	tree, err := Train(X, y, 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := range X {
		if tree.Predict(X[i]) == y[i] {
			hits++
		}
	}
	if hits < 198 {
		t.Fatalf("training accuracy %d/200", hits)
	}
	if tree.Predict([]float64{0.9, 0.5}) != 1 || tree.Predict([]float64{0.1, 0.5}) != 0 {
		t.Fatal("split threshold wrong")
	}
}

func TestLearnsXOROnlyWhenDeep(t *testing.T) {
	// XOR needs depth >= 2; a depth-1 stump cannot express it.
	var X [][]float64
	var y []int
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 400; i++ {
		a, b := rng.Float64(), rng.Float64()
		X = append(X, []float64{a, b})
		if (a > 0.5) != (b > 0.5) {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	deep, err := Train(X, y, 2, Config{MaxDepth: 4, MinLeafSamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	hitsDeep := 0
	for i := range X {
		if deep.Predict(X[i]) == y[i] {
			hitsDeep++
		}
	}
	if float64(hitsDeep)/400 < 0.95 {
		t.Fatalf("deep tree accuracy %v", float64(hitsDeep)/400)
	}
	stump, err := Train(X, y, 2, Config{MaxDepth: 1, MinLeafSamples: 2})
	if err != nil {
		t.Fatal(err)
	}
	hitsStump := 0
	for i := range X {
		if stump.Predict(X[i]) == y[i] {
			hitsStump++
		}
	}
	if float64(hitsStump)/400 > 0.8 {
		t.Fatalf("stump should not solve XOR, got %v", float64(hitsStump)/400)
	}
}

func TestDepthRegularisation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var X [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		X = append(X, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
		y = append(y, rng.Intn(3))
	}
	tree, err := Train(X, y, 3, Config{MaxDepth: 3, MinLeafSamples: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Walk every root-to-leaf path: none may take more than MaxDepth
	// splits.
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		if n.left == nil {
			return
		}
		if depth == 3 {
			t.Fatal("tree splits deeper than MaxDepth 3")
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(tree.root, 0)
	if tree.Nodes() == 0 {
		t.Fatal("no nodes")
	}
}

func TestPureLeafStopsEarly(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []int{1, 1, 1, 1}
	tree, err := Train(X, y, 2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n := tree.Nodes(); n != 1 {
		t.Fatalf("pure data should give a leaf, got %d nodes", n)
	}
	if tree.Predict([]float64{99}) != 1 {
		t.Fatal("wrong class")
	}
}

func TestConstantFeaturesGiveLeaf(t *testing.T) {
	X := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	y := []int{0, 1, 0, 1}
	tree, err := Train(X, y, 2, Config{MaxDepth: 5, MinLeafSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Nodes() != 1 {
		t.Fatal("cannot split constant features")
	}
}

// Property: predictions are always a class seen in training.
func TestPredictInRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(100)
		k := 2 + rng.Intn(4)
		X := make([][]float64, n)
		y := make([]int, n)
		for i := range X {
			X[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			y[i] = rng.Intn(k)
		}
		tree, err := Train(X, y, k, DefaultConfig())
		if err != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			p := tree.Predict([]float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3, rng.NormFloat64() * 3})
			if p < 0 || p >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
