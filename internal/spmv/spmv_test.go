package spmv

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func randomCOO(rng *rand.Rand, rows, cols, nnz int) *sparse.COO {
	es := make([]sparse.Entry, 0, nnz)
	for k := 0; k < nnz; k++ {
		es = append(es, sparse.Entry{
			Row: rng.Intn(rows), Col: rng.Intn(cols),
			Val: rng.NormFloat64() + 0.1,
		})
	}
	return sparse.MustCOO(rows, cols, es)
}

func denseRef(c *sparse.COO, x []float64) []float64 {
	rows, cols := c.Dims()
	d := c.Dense()
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		s := 0.0
		for j := 0; j < cols; j++ {
			s += d[i*cols+j] * x[j]
		}
		y[i] = s
	}
	return y
}

func vecsClose(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol*(1+math.Abs(b[i])) {
			return false
		}
	}
	return true
}

// Property: every parallel kernel agrees with the dense reference at
// every worker count from 1 to GOMAXPROCS+2 (oversubscription included).
func TestAllKernelsMatchDenseProperty(t *testing.T) {
	maxWorkers := runtime.GOMAXPROCS(0) + 2
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(80), 1+rng.Intn(80)
		nnz := rng.Intn(rows*cols/2 + 1)
		c := randomCOO(rng, rows, cols, nnz)
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := denseRef(c, x)
		y := make([]float64, rows)
		for _, format := range sparse.AllFormats() {
			m := sparse.MustConvert(c, format)
			k, err := ForFormat(format)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, maxWorkers, 0} {
				for i := range y {
					y[i] = math.NaN() // kernels must fully overwrite y
				}
				k.Mul(y, m, x, workers)
				if !vecsClose(y, want, 1e-9) {
					t.Logf("%v with %d workers mismatched (seed %d, %dx%d nnz %d)",
						format, workers, seed, rows, cols, c.NNZ())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMulConvenience(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := randomCOO(rng, 30, 30, 120)
	x := make([]float64, 30)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, 30)
	Mul(y, sparse.NewCSR(c), x, 0)
	if !vecsClose(y, denseRef(c, x), 1e-9) {
		t.Fatal("Mul convenience wrapper wrong")
	}
}

// TestForFormatUnknown: a number no format has — 2 and 8 once numbered
// CSC and SELL — gets neither a kernel nor a conversion.
func TestForFormatUnknown(t *testing.T) {
	c := randomCOO(rand.New(rand.NewSource(3)), 4, 4, 6)
	for _, f := range []sparse.Format{-1, 2, 8, 99} {
		if _, err := ForFormat(f); err == nil {
			t.Errorf("ForFormat(%v): expected error for unknown format", f)
		}
		if _, err := sparse.Convert(c, f); err == nil {
			t.Errorf("Convert(%v): expected error for unknown format", f)
		}
	}
}

// TestFigure1SpMVAllFormats runs the paper's Figure 1 example through
// every kernel, serial and parallel.
func TestFigure1SpMVAllFormats(t *testing.T) {
	c := sparse.MustCOO(4, 4, []sparse.Entry{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 5},
		{Row: 1, Col: 1, Val: 2}, {Row: 1, Col: 2, Val: 6},
		{Row: 2, Col: 0, Val: 8}, {Row: 2, Col: 2, Val: 3}, {Row: 2, Col: 3, Val: 7},
		{Row: 3, Col: 1, Val: 9}, {Row: 3, Col: 3, Val: 4},
	})
	x := []float64{1, 2, 3, 4}
	want := []float64{11, 22, 45, 34} // dense A·x
	for _, f := range sparse.AllFormats() {
		m := sparse.MustConvert(c, f)
		for _, workers := range []int{1, 4} {
			y := []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}
			Mul(y, m, x, workers)
			if !slices.Equal(y, want) {
				t.Fatalf("%v with %d workers: y = %v, want %v", f, workers, y, want)
			}
		}
	}
}
func TestKernelFormatTags(t *testing.T) {
	for _, f := range sparse.AllFormats() {
		k, err := ForFormat(f)
		if err != nil {
			t.Fatal(err)
		}
		if k.Format() != f {
			t.Fatalf("kernel for %v reports %v", f, k.Format())
		}
	}
}

func TestKernelWrongFormatPanics(t *testing.T) {
	c := randomCOO(rand.New(rand.NewSource(1)), 4, 4, 6)
	k, _ := ForFormat(sparse.FormatCSR)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic feeding COO to CSR kernel")
		}
	}()
	k.Mul(make([]float64, 4), c, make([]float64, 4), 1)
}

// TestKernelDimMismatchPanics: every kernel refuses a y or an x whose
// length is not the matrix's.
func TestKernelDimMismatchPanics(t *testing.T) {
	c := randomCOO(rand.New(rand.NewSource(2)), 4, 4, 6)
	for _, f := range sparse.AllFormats() {
		m := sparse.MustConvert(c, f)
		k, _ := ForFormat(f)
		for _, lens := range [][2]int{{3, 4}, {4, 3}, {5, 4}, {4, 5}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%v: no panic for len(y)=%d len(x)=%d on a 4x4 matrix", f, lens[0], lens[1])
					}
				}()
				k.Mul(make([]float64, lens[0]), m, make([]float64, lens[1]), 1)
			}()
		}
	}
}

func TestEmptyMatrixAllKernels(t *testing.T) {
	c := sparse.MustCOO(8, 8, nil)
	x := make([]float64, 8)
	for i := range x {
		x[i] = 1
	}
	for _, f := range sparse.AllFormats() {
		m := sparse.MustConvert(c, f)
		k, _ := ForFormat(f)
		y := make([]float64, 8)
		for i := range y {
			y[i] = 42 // must be cleared
		}
		k.Mul(y, m, x, 4)
		for i, v := range y {
			if v != 0 {
				t.Fatalf("%v: y[%d] = %v on empty matrix", f, i, v)
			}
		}
	}
}

func TestSingleRowManyWorkers(t *testing.T) {
	// More workers than rows must not deadlock or double-compute.
	es := []sparse.Entry{}
	for j := 0; j < 1000; j++ {
		es = append(es, sparse.Entry{Row: 0, Col: j, Val: 1})
	}
	c := sparse.MustCOO(1, 1000, es)
	x := make([]float64, 1000)
	for i := range x {
		x[i] = 1
	}
	for _, f := range sparse.AllFormats() {
		m := sparse.MustConvert(c, f)
		k, _ := ForFormat(f)
		y := make([]float64, 1)
		k.Mul(y, m, x, 16)
		if math.Abs(y[0]-1000) > 1e-9 {
			t.Fatalf("%v: y[0] = %v, want 1000", f, y[0])
		}
	}
}

func TestResolveWorkers(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	// Defaulted requests (<=0) take GOMAXPROCS, clamped by units.
	if got := resolveWorkers(0, 100); got != min(max, 100) {
		t.Fatalf("resolveWorkers(0,100) = %d, want %d", got, min(max, 100))
	}
	if got := resolveWorkers(-3, 100); got != min(max, 100) {
		t.Fatalf("resolveWorkers(-3,100) = %d, want %d", got, min(max, 100))
	}
	if got := resolveWorkers(0, 1); got != 1 {
		t.Fatalf("resolveWorkers(0,1) = %d, want 1", got)
	}
	// Explicit positive requests are honoured regardless of GOMAXPROCS —
	// oversubscription is the caller's choice. These cases are
	// deterministic whatever GOMAXPROCS is, including 1.
	if got := resolveWorkers(4, 2); got != 2 {
		t.Fatalf("resolveWorkers(4,2) = %d, want 2", got)
	}
	if got, want := resolveWorkers(max+10, max+20), max+10; got != want {
		t.Fatalf("resolveWorkers(%d,%d) = %d, want %d (explicit request clamped)", max+10, max+20, got, want)
	}
	// The units clamp still bounds explicit requests.
	if got := resolveWorkers(1000, 100); got != 100 {
		t.Fatalf("resolveWorkers(1000,100) = %d, want 100", got)
	}
	// Degenerate unit counts resolve to a single worker.
	if got := resolveWorkers(4, 0); got != 1 {
		t.Fatalf("resolveWorkers(4,0) = %d, want 1", got)
	}
}
