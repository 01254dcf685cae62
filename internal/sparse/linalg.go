package sparse

import "fmt"

// Elementary sparse linear algebra on canonical COO — the utility
// surface a solver library expects around its SpMV core.

// Add returns a + b. Dimensions must match.
func Add(a, b *COO) (*COO, error) {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		return nil, fmt.Errorf("sparse: Add dimension mismatch %dx%d vs %dx%d", ar, ac, br, bc)
	}
	es := append(a.Entries(), b.Entries()...)
	return NewCOO(ar, ac, es)
}

// Scale returns s·a.
func Scale(a *COO, s float64) *COO {
	rows, cols := a.Dims()
	es := a.Entries()
	for i := range es {
		es[i].Val *= s
	}
	return MustCOO(rows, cols, es)
}

// Diagonal extracts the principal diagonal as a dense vector of length
// min(rows, cols).
func Diagonal(a *COO) []float64 {
	rows, cols := a.Dims()
	n := rows
	if cols < n {
		n = cols
	}
	d := make([]float64, n)
	for k := range a.Vals {
		if a.Rows[k] == a.Cols[k] {
			d[a.Rows[k]] = a.Vals[k]
		}
	}
	return d
}

// WithDiagonal returns a copy of a whose principal diagonal is replaced
// by d (len(d) = min(rows, cols)); useful for Jacobi-style shifts.
func WithDiagonal(a *COO, d []float64) (*COO, error) {
	rows, cols := a.Dims()
	n := rows
	if cols < n {
		n = cols
	}
	if len(d) != n {
		return nil, fmt.Errorf("sparse: WithDiagonal needs %d values, got %d", n, len(d))
	}
	var es []Entry
	for k := range a.Vals {
		if a.Rows[k] != a.Cols[k] {
			es = append(es, Entry{Row: int(a.Rows[k]), Col: int(a.Cols[k]), Val: a.Vals[k]})
		}
	}
	for i, v := range d {
		if v != 0 {
			es = append(es, Entry{Row: i, Col: i, Val: v})
		}
	}
	return NewCOO(rows, cols, es)
}
