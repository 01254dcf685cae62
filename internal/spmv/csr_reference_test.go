package spmv

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// The CSR bodies as they stood before they learned to skip empty rows,
// kept verbatim (names prefixed) as the references
// TestCSRBodiesMatchReference compares against. Each visited every row
// of [lo,hi) and summed it from zero; the bodies in tuned.go must give
// the same y bit for bit, per variant.

func refCSRRowsRef(y []float64, a *sparse.CSR, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := 0.0
		for j := a.RowPtr[i]; j < a.RowPtr[i+1]; j++ {
			s += a.Vals[j] * x[a.ColIdx[j]]
		}
		y[i] = s
	}
}

func refCSRRowsU4(y []float64, a *sparse.CSR, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		start, end := int(a.RowPtr[i]), int(a.RowPtr[i+1])
		v := a.Vals[start:end]
		c := a.ColIdx[start:end]
		var s0, s1, s2, s3 float64
		j := 0
		for ; j+4 <= len(v) && j+4 <= len(c); j += 4 {
			s0 += v[j] * x[c[j]]
			s1 += v[j+1] * x[c[j+1]]
			s2 += v[j+2] * x[c[j+2]]
			s3 += v[j+3] * x[c[j+3]]
		}
		s := (s0 + s2) + (s1 + s3)
		for ; j < len(v); j++ {
			s += v[j] * x[c[j]]
		}
		y[i] = s
	}
}

func refCSRRowsU8(y []float64, a *sparse.CSR, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		start, end := int(a.RowPtr[i]), int(a.RowPtr[i+1])
		v := a.Vals[start:end]
		c := a.ColIdx[start:end]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		j := 0
		for ; j+8 <= len(v) && j+8 <= len(c); j += 8 {
			s0 += v[j] * x[c[j]]
			s1 += v[j+1] * x[c[j+1]]
			s2 += v[j+2] * x[c[j+2]]
			s3 += v[j+3] * x[c[j+3]]
			s4 += v[j+4] * x[c[j+4]]
			s5 += v[j+5] * x[c[j+5]]
			s6 += v[j+6] * x[c[j+6]]
			s7 += v[j+7] * x[c[j+7]]
		}
		s := ((s0 + s4) + (s1 + s5)) + ((s2 + s6) + (s3 + s7))
		for ; j < len(v); j++ {
			s += v[j] * x[c[j]]
		}
		y[i] = s
	}
}

var refCSRBodies = [...]csrBody{
	variantRef:     refCSRRowsRef,
	variantUnroll4: refCSRRowsU4,
	variantUnroll8: refCSRRowsU8,
}

// csrEdgeCOOs adds the shapes where skipping empty rows could go wrong
// to the adversarial set: mostly empty, entirely empty, one nonempty
// row at either end, and a matrix of one row.
func csrEdgeCOOs(t *testing.T) map[string]*sparse.COO {
	t.Helper()
	out := adversarialCOOs(t)
	out["tall-hypersparse"] = synthgen.Hypersparse(20000, 500, 300, 3)
	out["all-empty"] = mustCOO(t, 50, 7, nil)
	var first, last, single []sparse.Entry
	for j := 0; j < 11; j++ {
		v := float64(j) - 4.5
		first = append(first, sparse.Entry{Row: 0, Col: j, Val: v})
		last = append(last, sparse.Entry{Row: 39, Col: j, Val: v})
		single = append(single, sparse.Entry{Row: 0, Col: 2 * j, Val: v})
	}
	out["first-row-only"] = mustCOO(t, 40, 11, first)
	out["last-row-only"] = mustCOO(t, 40, 11, last)
	out["single-row"] = mustCOO(t, 1, 22, single)
	return out
}

// TestCSRBodiesMatchReference requires every CSR body to write exactly
// the bits its reference writes, into a y seeded with NaN (a row the
// body forgets stays NaN), called directly and under every partition
// parallelRowsTiled makes for 1, 2 and 4 workers and tiles of 1, 7 and
// 64 rows.
func TestCSRBodiesMatchReference(t *testing.T) {
	for name, c := range csrEdgeCOOs(t) {
		a := sparse.NewCSR(c)
		rows, cols := a.Dims()
		x := make([]float64, cols)
		for i := range x {
			x[i] = math.Sin(float64(i)) + 1.5
		}
		for v := variantRef; v < numVariants; v++ {
			want := make([]float64, rows)
			refCSRBodies[v](want, a, x, 0, rows)
			body := csrBodies[v]
			check := func(how string, run func(y []float64)) {
				t.Helper()
				got := make([]float64, rows)
				for i := range got {
					got[i] = math.NaN()
				}
				run(got)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s/%v/%s: y[%d] = %g, reference %g", name, v, how, i, got[i], want[i])
					}
				}
			}
			check("direct", func(y []float64) { body(y, a, x, 0, rows) })
			for _, workers := range []int{1, 2, 4} {
				for _, tile := range []int{1, 7, 64} {
					check(fmt.Sprintf("workers=%d,tile=%d", workers, tile), func(y []float64) {
						parallelRowsTiled(rows, workers, tile, func(lo, hi int) { body(y, a, x, lo, hi) })
					})
				}
			}
		}
	}
}
