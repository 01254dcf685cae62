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
