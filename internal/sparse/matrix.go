// Package sparse implements the sparse-matrix storage formats the
// paper selects among — COO, CSR, DIA, ELL, HYB, BSR and CSR5 —
// together with conversions between them, MatrixMarket I/O, and the
// structural statistics used for format labelling and hand-crafted
// features. The SpMV for each format is the spmv package's kernel.
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
// CSR/ELL/HYB/BSR/CSR5/COO (Table 3). The numbers are stored as ints in
// selector headers, decision-tree blobs and corpus-store manifests and
// shard headers, so none may change. 2 numbered CSC and stays a hole
// that is never reused, and 8 (SELL-C-σ) lies past the end: an artifact
// that names either is refused by CheckFormats instead of being read as
// some other format.
const (
	FormatCOO  Format = 0
	FormatCSR  Format = 1
	FormatDIA  Format = 3
	FormatELL  Format = 4
	FormatHYB  Format = 5
	FormatBSR  Format = 6
	FormatCSR5 Format = 7
)

// String returns the conventional short name of the format.
func (f Format) String() string {
	switch f {
	case FormatCOO:
		return "COO"
	case FormatCSR:
		return "CSR"
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
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat converts a short name like "CSR" to a Format.
func ParseFormat(s string) (Format, error) {
	for _, f := range allFormats {
		if f.String() == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("sparse: unknown format %q", s)
}

// CheckFormats reports the first format in fs that is not one of
// AllFormats. Everything that reads format numbers from disk calls it,
// so an artifact naming a number no format has is refused on load.
func CheckFormats(fs []Format) error {
	for _, f := range fs {
		if !slices.Contains(allFormats, f) {
			return fmt.Errorf("sparse: unknown format number %d", int(f))
		}
	}
	return nil
}

// allFormats is the union of the two selection sets in number order.
var allFormats = func() []Format {
	fs := slices.Concat(CPUFormats(), GPUFormats())
	slices.Sort(fs)
	return slices.Compact(fs)
}()

// AllFormats returns every supported format — the union of CPUFormats
// and GPUFormats — in number order.
func AllFormats() []Format { return slices.Clone(allFormats) }

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
	// ToCOO converts the matrix to canonical COO form.
	ToCOO() *COO
	// Bytes estimates the in-memory size of the format's index and
	// value arrays in bytes (8-byte values, 4-byte indices), the
	// quantity that drives memory traffic in SpMV cost models.
	Bytes() int64
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
