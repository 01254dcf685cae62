// Package sparse implements the sparse-matrix storage formats studied by
// the paper — COO, CSR, CSC, DIA, ELL, HYB, BSR and CSR5 — together with
// conversions between them, MatrixMarket I/O, and the structural
// statistics used for format labelling and hand-crafted features.
//
// COO is the canonical exchange format: every other format is built from
// and converts back to a canonical (row-major sorted, deduplicated) COO.
package sparse

import (
	"cmp"
	"fmt"
	"slices"
)

// Format identifies a sparse storage format.
type Format int

// The storage formats covered by the paper's evaluation: the CPU study
// selects among COO/CSR/DIA/ELL (Table 2), the GPU study among
// CSR/ELL/HYB/BSR/CSR5/COO (Table 3). CSC is included as a utility
// format for transpose-heavy operations.
const (
	FormatCOO Format = iota
	FormatCSR
	FormatCSC
	FormatDIA
	FormatELL
	FormatHYB
	FormatBSR
	FormatCSR5
	// FormatSELL is SELL-C-σ, an extension beyond the paper's selection
	// sets (kept out of CPUFormats/GPUFormats so Tables 2/3 stay
	// faithful; available to the library and benchmarks).
	FormatSELL
	numFormats
)

// String returns the conventional short name of the format.
func (f Format) String() string {
	switch f {
	case FormatCOO:
		return "COO"
	case FormatCSR:
		return "CSR"
	case FormatCSC:
		return "CSC"
	case FormatDIA:
		return "DIA"
	case FormatELL:
		return "ELL"
	case FormatHYB:
		return "HYB"
	case FormatBSR:
		return "BSR"
	case FormatCSR5:
		return "CSR5"
	case FormatSELL:
		return "SELL"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat converts a short name like "CSR" to a Format.
func ParseFormat(s string) (Format, error) {
	for f := FormatCOO; f < numFormats; f++ {
		if f.String() == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("sparse: unknown format %q", s)
}

// AllFormats returns every supported format in declaration order.
func AllFormats() []Format {
	fs := make([]Format, numFormats)
	for i := range fs {
		fs[i] = Format(i)
	}
	return fs
}

// CPUFormats is the selection set used in the paper's CPU experiments
// (Table 2, SMATLib).
func CPUFormats() []Format {
	return []Format{FormatCOO, FormatCSR, FormatDIA, FormatELL}
}

// GPUFormats is the selection set used in the paper's GPU experiments
// (Table 3, cuSPARSE + CSR5).
func GPUFormats() []Format {
	return []Format{FormatCSR, FormatELL, FormatHYB, FormatBSR, FormatCSR5, FormatCOO}
}

// Matrix is the common read-only interface of all storage formats.
type Matrix interface {
	// Dims returns the logical matrix dimensions (rows, cols).
	Dims() (rows, cols int)
	// NNZ returns the number of stored nonzero entries.
	NNZ() int
	// Format identifies the concrete storage format.
	Format() Format
	// MulVec computes y = A·x, overwriting y. It is the serial
	// reference SpMV for the format; the spmv package provides
	// parallel kernels. len(x) must be cols and len(y) rows.
	MulVec(y, x []float64)
	// ToCOO converts the matrix to canonical COO form.
	ToCOO() *COO
	// Bytes estimates the in-memory size of the format's index and
	// value arrays in bytes (8-byte values, 4-byte indices), the
	// quantity that drives memory traffic in SpMV cost models.
	Bytes() int64
}

// checkMulVecDims panics with a clear message when MulVec operand
// lengths do not match the matrix dimensions.
func checkMulVecDims(rows, cols int, y, x []float64, format Format) {
	if len(x) != cols || len(y) != rows {
		panic(fmt.Sprintf("sparse: %s MulVec dimension mismatch: matrix %dx%d, len(y)=%d len(x)=%d",
			format, rows, cols, len(y), len(x)))
	}
}

// Entry is one nonzero element in triplet form.
type Entry struct {
	Row, Col int
	Val      float64
}

// sortEntries orders entries row-major (row, then col). The sort is
// not stable and NewCOOOwned sums duplicates in the order it leaves
// them, so which pdqsort this is shows in the low bits of a canonical
// value: TestSortEntriesDuplicateOrder pins it to sort.Slice's.
func sortEntries(es []Entry) {
	slices.SortFunc(es, func(a, b Entry) int {
		if c := cmp.Compare(a.Row, b.Row); c != 0 {
			return c
		}
		return cmp.Compare(a.Col, b.Col)
	})
}
