package spmv

import (
	"repro/internal/sparse"
)

// csrKernel parallelises the Figure 1 CSR loop by row blocks; each
// worker owns a contiguous slice of y, so no synchronisation is needed
// beyond the final join.
type csrKernel struct{}

func (csrKernel) Format() sparse.Format { return sparse.FormatCSR }

func (csrKernel) Mul(y []float64, m sparse.Matrix, x []float64, workers int) {
	a := mustFormat[*sparse.CSR](m, sparse.FormatCSR)
	checkDims(m, y, x)
	rows, _ := a.Dims()
	v, tile := pick(sparse.FormatCSR, a.NNZ())
	body := csrBodies[v]
	parallelRowsTiled(rows, workers, tile, func(lo, hi int) {
		body(y, a, x, lo, hi)
	})
}

// cooKernel splits the nonzero stream across workers; row collisions
// between workers are resolved with private partial vectors and a
// parallel reduction (the software analogue of COO SpMV's atomic adds).
type cooKernel struct{}

func (cooKernel) Format() sparse.Format { return sparse.FormatCOO }

func (cooKernel) Mul(y []float64, m sparse.Matrix, x []float64, workers int) {
	a := mustFormat[*sparse.COO](m, sparse.FormatCOO)
	checkDims(m, y, x)
	scatterReduce(y, a.NNZ(), workers, func(p []float64, lo, hi int) {
		for k := lo; k < hi; k++ {
			p[a.Rows[k]] += a.Vals[k] * x[a.Cols[k]]
		}
	})
}

// diaKernel parallelises over row blocks; within a block every diagonal
// contributes a contiguous streaming pass, preserving DIA's unit-stride
// access pattern.
type diaKernel struct{}

func (diaKernel) Format() sparse.Format { return sparse.FormatDIA }

func (diaKernel) Mul(y []float64, m sparse.Matrix, x []float64, workers int) {
	a := mustFormat[*sparse.DIA](m, sparse.FormatDIA)
	checkDims(m, y, x)
	rows, cols := a.Dims()
	parallelRows(rows, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			y[i] = 0
		}
		for d, off := range a.Offsets {
			k := int(off)
			istart := lo
			if k < 0 && -k > istart {
				istart = -k
			}
			iend := hi
			if limit := cols - k; limit < iend {
				iend = limit
			}
			lane := a.Data[d*a.Stride:]
			for i := istart; i < iend; i++ {
				y[i] += lane[i] * x[i+k]
			}
		}
	})
}

// ellKernel parallelises over row blocks of the padded slab.
type ellKernel struct{}

func (ellKernel) Format() sparse.Format { return sparse.FormatELL }

func (ellKernel) Mul(y []float64, m sparse.Matrix, x []float64, workers int) {
	a := mustFormat[*sparse.ELL](m, sparse.FormatELL)
	checkDims(m, y, x)
	rows, _ := a.Dims()
	v, tile := pick(sparse.FormatELL, a.NNZ())
	body := ellBodies[v]
	parallelRowsTiled(rows, workers, tile, func(lo, hi int) {
		body(y, a, x, lo, hi)
	})
}

// hybKernel runs the regular ELL slab row-parallel, then folds in the
// COO tail with a scatter-reduce.
type hybKernel struct{}

func (hybKernel) Format() sparse.Format { return sparse.FormatHYB }

func (hybKernel) Mul(y []float64, m sparse.Matrix, x []float64, workers int) {
	a := mustFormat[*sparse.HYB](m, sparse.FormatHYB)
	checkDims(m, y, x)
	rows, _ := a.Dims()
	ell := a.ELL
	parallelRows(rows, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := 0.0
			base := i * ell.Width
			for w := 0; w < ell.Width; w++ {
				c := ell.ColIdx[base+w]
				if c < 0 {
					break
				}
				s += ell.Vals[base+w] * x[c]
			}
			y[i] = s
		}
	})
	tail := a.Tail
	if tail.NNZ() == 0 {
		return
	}
	// Tail is typically small; accumulate serially to avoid a second
	// round of partial vectors (it accumulates ON TOP of y, so the
	// scatterReduce helper, which zeroes, cannot be reused).
	for k, v := range tail.Vals {
		y[tail.Rows[k]] += v * x[tail.Cols[k]]
	}
}

// bsrKernel parallelises over block rows, each worker performing dense
// B×B block products into its contiguous slice of y.
type bsrKernel struct{}

func (bsrKernel) Format() sparse.Format { return sparse.FormatBSR }

func (bsrKernel) Mul(y []float64, m sparse.Matrix, x []float64, workers int) {
	a := mustFormat[*sparse.BSR](m, sparse.FormatBSR)
	checkDims(m, y, x)
	v, tile := pick(sparse.FormatBSR, a.NNZ())
	body := bsrBodies[v]
	parallelRowsTiled(a.BlockRows, workers, tile, func(blo, bhi int) {
		body(y, a, x, blo, bhi)
	})
}

// csr5Kernel parallelises over tiles — the whole point of CSR5 is that
// tiles carry equal work regardless of row structure, so a tile
// partition is load-balanced by construction. Lane flushes can target
// rows shared with neighbouring tiles, so workers accumulate into
// private vectors merged by reduction.
type csr5Kernel struct{}

func (csr5Kernel) Format() sparse.Format { return sparse.FormatCSR5 }

func (csr5Kernel) Mul(y []float64, m sparse.Matrix, x []float64, workers int) {
	a := mustFormat[*sparse.CSR5](m, sparse.FormatCSR5)
	checkDims(m, y, x)
	omega, sigma := a.Omega, a.Sigma
	tileElems := omega * sigma
	units := a.NumTiles
	if units == 0 {
		units = 1
	}
	scatterReduce(y, units, workers, func(p []float64, tlo, thi int) {
		if a.NumTiles == 0 {
			thi = 0
		}
		for t := tlo; t < thi; t++ {
			base := t * tileElems
			for l := 0; l < omega; l++ {
				laneIdx := t*omega + l
				flags := a.BitFlag[laneIdx]
				cur := a.LaneRow[laneIdx]
				seg := a.SegPtr[laneIdx]
				sum := 0.0
				for i := 0; i < sigma; i++ {
					if flags&(1<<uint(i)) != 0 {
						if i > 0 {
							p[cur] += sum
							sum = 0
						}
						cur = a.SegRows[seg]
						seg++
					}
					q := base + i*omega + l
					sum += a.ValsT[q] * x[a.ColIdxT[q]]
				}
				p[cur] += sum
			}
		}
		// The first worker also handles the remainder tail.
		if tlo == 0 {
			for k, v := range a.TailVals {
				p[a.TailRows[k]] += v * x[a.TailCols[k]]
			}
		}
	})
}
