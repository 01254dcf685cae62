package synthgen

import (
	"math/rand"

	"repro/internal/sparse"
)

// The paper expands the SuiteSparse collection from 2757 to 9200
// matrices with "simple heuristics like cropping, transforming and
// randomized combinations of the original matrices" (§7.1). These are
// those operators.

// Crop extracts the h×w submatrix of c anchored at (r0, c0), clamped to
// c's bounds. The result keeps at least one nonzero (a unit diagonal
// entry is inserted if the window is empty).
func Crop(c *sparse.COO, r0, c0, h, w int) *sparse.COO {
	rows, cols := c.Dims()
	if r0 < 0 {
		r0 = 0
	}
	if c0 < 0 {
		c0 = 0
	}
	if r0+h > rows {
		h = rows - r0
	}
	if c0+w > cols {
		w = cols - c0
	}
	if h < 1 {
		h = 1
	}
	if w < 1 {
		w = 1
	}
	var es []sparse.Entry
	for k, v := range c.Vals {
		r, cl := int(c.Rows[k]), int(c.Cols[k])
		if r >= r0 && r < r0+h && cl >= c0 && cl < c0+w {
			es = append(es, sparse.Entry{Row: r - r0, Col: cl - c0, Val: v})
		}
	}
	if len(es) == 0 {
		es = append(es, sparse.Entry{Row: 0, Col: 0, Val: 1})
	}
	return sparse.MustCOO(h, w, es)
}

// Permute applies a random symmetric row/column permutation — it
// scrambles diagonal and block structure while preserving the row-length
// distribution, turning e.g. DIA-friendly matrices into CSR-friendly
// ones.
func Permute(c *sparse.COO, seed int64) *sparse.COO {
	rng := rand.New(rand.NewSource(seed))
	rows, cols := c.Dims()
	rp := rng.Perm(rows)
	cp := rng.Perm(cols)
	es := make([]sparse.Entry, 0, c.NNZ())
	for k, v := range c.Vals {
		es = append(es, sparse.Entry{Row: rp[c.Rows[k]], Col: cp[c.Cols[k]], Val: v})
	}
	return sparse.MustCOO(rows, cols, es)
}

// Sparsify keeps each entry with probability keep, thinning the matrix
// while preserving its coarse spatial pattern.
func Sparsify(c *sparse.COO, keep float64, seed int64) *sparse.COO {
	rng := rand.New(rand.NewSource(seed))
	rows, cols := c.Dims()
	var es []sparse.Entry
	for k, v := range c.Vals {
		if rng.Float64() < keep {
			es = append(es, sparse.Entry{Row: int(c.Rows[k]), Col: int(c.Cols[k]), Val: v})
		}
	}
	if len(es) == 0 && c.NNZ() > 0 {
		es = append(es, sparse.Entry{Row: int(c.Rows[0]), Col: int(c.Cols[0]), Val: c.Vals[0]})
	}
	return sparse.MustCOO(rows, cols, es)
}
