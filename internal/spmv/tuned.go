package spmv

import (
	"repro/internal/sparse"
)

// Tuned kernel variants. Each format with tunable inner loops (CSR,
// ELL, BSR) has a small family of row-range bodies; the per-process
// dispatch table (autotune.go) picks one per matrix-size bucket. Every
// variant computes the same y = A·x as the reference body up to
// floating-point reassociation: the unrolled loops keep independent
// partial accumulators to break the serial dependence chain, so sums
// are reassociated (pairwise), never dropped.
//
// All bodies are allocation-free: they slice existing storage and never
// spawn goroutines — parallelism stays the caller's job (parallelRows).

// --- CSR ---------------------------------------------------------------

// csrBody computes rows [lo,hi) of y = A·x for a CSR matrix.
type csrBody func(y []float64, a *sparse.CSR, x []float64, lo, hi int)

// Every CSR body clears its rows of y once and then walks RowPtr
// carrying the previous pointer, entering a dot product only where two
// neighbouring pointers differ: an empty row costs its share of the
// clear and one compare. On a tall hypersparse matrix (most rows empty)
// that is the whole kernel. Each nonempty row keeps the summation order
// of the per-row references in csr_reference_test.go, which y must
// match bit for bit.

// csrRowsRef is the Figure 1 loop: one scalar sum per nonempty row.
func csrRowsRef(y []float64, a *sparse.CSR, x []float64, lo, hi int) {
	yw := y[lo:hi]
	clear(yw)
	ptr := a.RowPtr[lo+1 : hi+1]
	prev := a.RowPtr[lo]
	for i, end := range ptr {
		if end == prev {
			continue
		}
		s := 0.0
		for j := prev; j < end; j++ {
			s += a.Vals[j] * x[a.ColIdx[j]]
		}
		yw[i] = s
		prev = end
	}
}

// csrRowsU4 unrolls the inner product 4-wide with independent
// accumulators, breaking the add dependence chain; row slices are
// hoisted so the compiler can elide per-element bounds checks on the
// value/index streams.
func csrRowsU4(y []float64, a *sparse.CSR, x []float64, lo, hi int) {
	yw := y[lo:hi]
	clear(yw)
	ptr := a.RowPtr[lo+1 : hi+1]
	prev := int(a.RowPtr[lo])
	for i, p := range ptr {
		start, end := prev, int(p)
		if start == end {
			continue
		}
		prev = end
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
		yw[i] = s
	}
}

// csrRowsU8 unrolls 8-wide: worth it for long, cache-resident rows
// where the loop body (not memory) is the bottleneck.
func csrRowsU8(y []float64, a *sparse.CSR, x []float64, lo, hi int) {
	yw := y[lo:hi]
	clear(yw)
	ptr := a.RowPtr[lo+1 : hi+1]
	prev := int(a.RowPtr[lo])
	for i, p := range ptr {
		start, end := prev, int(p)
		if start == end {
			continue
		}
		prev = end
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
		yw[i] = s
	}
}

// csrBodies is indexed by the CSR variant of a table entry.
var csrBodies = [...]csrBody{
	variantRef:     csrRowsRef,
	variantUnroll4: csrRowsU4,
	variantUnroll8: csrRowsU8,
}

// --- ELL ---------------------------------------------------------------

// ellBody computes rows [lo,hi) of y = A·x for an ELL matrix.
type ellBody func(y []float64, a *sparse.ELL, x []float64, lo, hi int)

// ellRowsRef is the reference padded-slab loop with the per-element
// sentinel test.
func ellRowsRef(y []float64, a *sparse.ELL, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := 0.0
		base := i * a.Width
		for w := 0; w < a.Width; w++ {
			c := a.ColIdx[base+w]
			if c < 0 {
				break
			}
			s += a.Vals[base+w] * x[c]
		}
		y[i] = s
	}
}

// ellRowsU4 processes the slab in groups of four lanes. Padding is a
// suffix of each row (NewELL left-justifies), so testing only the last
// lane of a group proves the whole group valid — one branch per four
// elements instead of one per element — and the dot product keeps four
// independent accumulators like the CSR variant.
func ellRowsU4(y []float64, a *sparse.ELL, x []float64, lo, hi int) {
	width := a.Width
	for i := lo; i < hi; i++ {
		base := i * width
		c := a.ColIdx[base : base+width]
		v := a.Vals[base : base+width]
		var s0, s1, s2, s3 float64
		w := 0
		for ; w+4 <= len(c) && w+4 <= len(v); w += 4 {
			if c[w+3] < 0 {
				break
			}
			s0 += v[w] * x[c[w]]
			s1 += v[w+1] * x[c[w+1]]
			s2 += v[w+2] * x[c[w+2]]
			s3 += v[w+3] * x[c[w+3]]
		}
		s := (s0 + s2) + (s1 + s3)
		for ; w < len(c); w++ {
			cc := c[w]
			if cc < 0 {
				break
			}
			s += v[w] * x[cc]
		}
		y[i] = s
	}
}

// ellBodies is indexed by the ELL variant of a table entry (unroll8
// aliases unroll4: groups wider than the typical padded width would
// only lengthen the scalar tail).
var ellBodies = [...]ellBody{
	variantRef:     ellRowsRef,
	variantUnroll4: ellRowsU4,
	variantUnroll8: ellRowsU4,
}

// --- BSR ---------------------------------------------------------------

// bsrBody computes block rows [blo,bhi) of y = A·x for a BSR matrix.
type bsrBody func(y []float64, a *sparse.BSR, x []float64, blo, bhi int)

// bsrRowsRef is the reference dense-block loop.
func bsrRowsRef(y []float64, a *sparse.BSR, x []float64, blo, bhi int) {
	rows, cols := a.Dims()
	b := a.B
	for br := blo; br < bhi; br++ {
		rowBase := br * b
		rmax := b
		if rowBase+rmax > rows {
			rmax = rows - rowBase
		}
		for lr := 0; lr < rmax; lr++ {
			y[rowBase+lr] = 0
		}
		for p := a.RowPtr[br]; p < a.RowPtr[br+1]; p++ {
			colBase := int(a.ColIdx[p]) * b
			cmax := b
			if colBase+cmax > cols {
				cmax = cols - colBase
			}
			blk := a.Blocks[int(p)*b*b:]
			for lr := 0; lr < rmax; lr++ {
				s := 0.0
				row := blk[lr*b : lr*b+cmax]
				xw := x[colBase : colBase+cmax]
				for lc, v := range row {
					s += v * xw[lc]
				}
				y[rowBase+lr] += s
			}
		}
	}
}

// bsrRowsMicro dispatches interior blocks of the common edge sizes to
// fully unrolled register microkernels; edge blocks (and uncommon edge
// sizes) fall back to the generic loop. The microkernels hold the four
// x values of a block column in registers across all block rows, so
// each x element is loaded once per block instead of once per row.
func bsrRowsMicro(y []float64, a *sparse.BSR, x []float64, blo, bhi int) {
	b := a.B
	if b != 4 && b != 2 {
		bsrRowsRef(y, a, x, blo, bhi)
		return
	}
	rows, cols := a.Dims()
	for br := blo; br < bhi; br++ {
		rowBase := br * b
		if rowBase+b > rows {
			// Trailing partial block row: generic handling.
			bsrRowsRef(y, a, x, br, br+1)
			continue
		}
		yw := y[rowBase : rowBase+b]
		for i := range yw {
			yw[i] = 0
		}
		for p := a.RowPtr[br]; p < a.RowPtr[br+1]; p++ {
			colBase := int(a.ColIdx[p]) * b
			blk := a.Blocks[int(p)*b*b : int(p)*b*b+b*b]
			if colBase+b > cols {
				// Trailing partial block column: generic inner loop.
				cmax := cols - colBase
				for lr := 0; lr < b; lr++ {
					s := 0.0
					row := blk[lr*b : lr*b+cmax]
					xw := x[colBase : colBase+cmax]
					for lc, v := range row {
						s += v * xw[lc]
					}
					yw[lr] += s
				}
				continue
			}
			xw := x[colBase : colBase+b]
			if b == 4 {
				x0, x1, x2, x3 := xw[0], xw[1], xw[2], xw[3]
				yw[0] += (blk[0]*x0 + blk[1]*x1) + (blk[2]*x2 + blk[3]*x3)
				yw[1] += (blk[4]*x0 + blk[5]*x1) + (blk[6]*x2 + blk[7]*x3)
				yw[2] += (blk[8]*x0 + blk[9]*x1) + (blk[10]*x2 + blk[11]*x3)
				yw[3] += (blk[12]*x0 + blk[13]*x1) + (blk[14]*x2 + blk[15]*x3)
			} else {
				x0, x1 := xw[0], xw[1]
				yw[0] += blk[0]*x0 + blk[1]*x1
				yw[1] += blk[2]*x0 + blk[3]*x1
			}
		}
	}
}

// bsrBodies is indexed by the BSR variant of a table entry; both unroll
// levels map to the microkernel (the block edge, not the unroll factor,
// fixes its shape).
var bsrBodies = [...]bsrBody{
	variantRef:     bsrRowsRef,
	variantUnroll4: bsrRowsMicro,
	variantUnroll8: bsrRowsMicro,
}
