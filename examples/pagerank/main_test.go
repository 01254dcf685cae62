package main

import (
	"math"
	"testing"

	"repro/internal/sparse"
)

func TestPowerIterateDominantEigenvalue(t *testing.T) {
	// Diagonal matrix: dominant eigenvalue is the largest diagonal.
	es := []sparse.Entry{{Row: 0, Col: 0, Val: 3}, {Row: 1, Col: 1, Val: 7}, {Row: 2, Col: 2, Val: 2}}
	m := sparse.NewCSR(sparse.MustCOO(3, 3, es))
	lambda := powerIterate(m, 60, 2)
	if math.Abs(lambda-7) > 1e-6 {
		t.Fatalf("lambda = %v, want 7", lambda)
	}
}
