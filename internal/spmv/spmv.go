// Package spmv provides parallel sparse matrix–vector multiplication
// kernels for every storage format in the sparse package, mirroring the
// multithreaded SpMV libraries (Intel MKL, SMATLib, cuSPARSE) the paper
// benchmarks. Each kernel computes y = A·x and is the one SpMV its
// format has; row-oriented formats are parallelised by partitioning rows
// across a goroutine worker pool, and scatter-oriented formats (COO,
// CSR5) use per-worker partial output vectors merged by a parallel
// reduction, avoiding atomics.
package spmv

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sparse"
)

// Kernel executes SpMV for one storage format.
type Kernel interface {
	// Format identifies which storage format this kernel accepts.
	Format() sparse.Format
	// Mul computes y = A·x using up to workers goroutines (workers <= 0
	// means GOMAXPROCS). It panics if m's format does not match or the
	// vector lengths do not match m's dimensions.
	Mul(y []float64, m sparse.Matrix, x []float64, workers int)
}

// ForFormat returns the parallel kernel for the given format.
func ForFormat(f sparse.Format) (Kernel, error) {
	switch f {
	case sparse.FormatCOO:
		return cooKernel{}, nil
	case sparse.FormatCSR:
		return csrKernel{}, nil
	case sparse.FormatDIA:
		return diaKernel{}, nil
	case sparse.FormatELL:
		return ellKernel{}, nil
	case sparse.FormatHYB:
		return hybKernel{}, nil
	case sparse.FormatBSR:
		return bsrKernel{}, nil
	case sparse.FormatCSR5:
		return csr5Kernel{}, nil
	default:
		return nil, fmt.Errorf("spmv: no kernel for format %v", f)
	}
}

// Mul is a convenience wrapper that looks up and runs the kernel for
// m's own format.
func Mul(y []float64, m sparse.Matrix, x []float64, workers int) {
	k, err := ForFormat(m.Format())
	if err != nil {
		panic(err)
	}
	k.Mul(y, m, x, workers)
}

// resolveWorkers resolves a requested worker count: 0 (or negative)
// means GOMAXPROCS; an explicit positive request is honoured as-is
// (oversubscribing GOMAXPROCS is the caller's choice). Either way the
// count never exceeds the units of work and is at least 1.
func resolveWorkers(workers, units int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > units {
		workers = units
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// parallelRows runs body(lo, hi) over [0, rows) split into contiguous
// chunks across the worker pool.
func parallelRows(rows, workers int, body func(lo, hi int)) {
	workers = resolveWorkers(workers, rows)
	if workers == 1 {
		body(0, rows)
		return
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// parallelRowsTiled is parallelRows with an optional row-tile size from
// the autotune table: with tile > 0 and more than one worker, workers
// claim tile-sized chunks off an atomic cursor instead of taking one
// even slice each, which balances skewed row-length distributions at
// the cost of one atomic add per tile. tile <= 0 keeps even splitting.
func parallelRowsTiled(rows, workers, tile int, body func(lo, hi int)) {
	workers = resolveWorkers(workers, rows)
	if workers == 1 || tile <= 0 {
		parallelRows(rows, workers, body)
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(cursor.Add(int64(tile))) - tile
				if lo >= rows {
					return
				}
				hi := lo + tile
				if hi > rows {
					hi = rows
				}
				body(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// scatterReduce parallelises a scatter-style kernel: each of the workers
// accumulates into a private copy of y over its share of the nonzeros,
// and the copies are summed into y with a parallel row-partitioned
// reduction.
func scatterReduce(y []float64, nnz, workers int, body func(partial []float64, lo, hi int)) {
	workers = resolveWorkers(workers, nnz)
	if workers == 1 {
		for i := range y {
			y[i] = 0
		}
		body(y, 0, nnz)
		return
	}
	partials := make([][]float64, workers)
	chunk := (nnz + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > nnz {
			hi = nnz
		}
		if lo >= hi {
			partials[w] = nil
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			p := make([]float64, len(y))
			body(p, lo, hi)
			partials[w] = p
		}(w, lo, hi)
	}
	wg.Wait()
	parallelRows(len(y), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := 0.0
			for _, p := range partials {
				if p != nil {
					s += p[i]
				}
			}
			y[i] = s
		}
	})
}

func mustFormat[T sparse.Matrix](m sparse.Matrix, want sparse.Format) T {
	t, ok := m.(T)
	if !ok {
		panic(fmt.Sprintf("spmv: kernel for %v got matrix of format %v", want, m.Format()))
	}
	return t
}

func checkDims(m sparse.Matrix, y, x []float64) {
	rows, cols := m.Dims()
	if len(y) != rows || len(x) != cols {
		panic(fmt.Sprintf("spmv: dimension mismatch: matrix %dx%d, len(y)=%d len(x)=%d",
			rows, cols, len(y), len(x)))
	}
}
