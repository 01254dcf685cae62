package sparse_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
	"repro/internal/spmv"
)

// These tests live in the external test package: the SpMV kernels of every
// format are in package spmv, which imports sparse. They run each kernel at
// one worker, the serial product.

// Property: every format's SpMV matches the dense reference product.
func TestSpMVAgreesWithDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(60), 1+rng.Intn(60)
		nnz := rng.Intn(rows*cols/2 + 1)
		es := make([]sparse.Entry, 0, nnz)
		for k := 0; k < nnz; k++ {
			es = append(es, sparse.Entry{
				Row: rng.Intn(rows), Col: rng.Intn(cols),
				Val: rng.NormFloat64() + 0.1,
			})
		}
		c := sparse.MustCOO(rows, cols, es)
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		dense := c.Dense()
		want := make([]float64, rows)
		for i := 0; i < rows; i++ {
			s := 0.0
			for j := 0; j < cols; j++ {
				s += dense[i*cols+j] * x[j]
			}
			want[i] = s
		}
		y := make([]float64, rows)
		for _, format := range sparse.AllFormats() {
			m := sparse.MustConvert(c, format)
			spmv.Mul(y, m, x, 1)
			for i := range want {
				if math.Abs(y[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Logf("%v SpMV mismatch at row %d (seed %d)", format, i, seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecDimensionMismatchPanics(t *testing.T) {
	// The 4×4 example from Figure 1 of the paper.
	c := sparse.MustCOO(4, 4, []sparse.Entry{
		{0, 0, 1}, {0, 1, 5},
		{1, 1, 2}, {1, 2, 6},
		{2, 0, 8}, {2, 2, 3}, {2, 3, 7},
		{3, 1, 9}, {3, 3, 4},
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	spmv.Mul(make([]float64, 3), c, make([]float64, 4), 1)
}
