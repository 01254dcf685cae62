package sparse

import (
	"fmt"
)

// COO stores a sparse matrix in coordinate (triplet) form: parallel
// arrays of row index, column index and value, exactly as in Figure 1 of
// the paper. Canonical COO is sorted row-major with no duplicate or
// explicit-zero entries; NewCOO establishes that invariant. The index
// arrays and dimensions are the embedded Pattern — what every
// position-only computation takes — and Vals runs parallel to them.
type COO struct {
	Pattern
	Vals []float64
}

// NewCOO builds a canonical COO matrix from triplet entries. Duplicate
// (row,col) entries are summed; entries that sum to zero are dropped.
// It returns an error when an index is out of range. The caller's slice
// is neither kept nor reordered; a caller that is done with its slice
// uses NewCOOOwned and saves the copy.
func NewCOO(rows, cols int, entries []Entry) (*COO, error) {
	es := make([]Entry, len(entries))
	copy(es, entries)
	return NewCOOOwned(rows, cols, es)
}

// NewCOOOwned is NewCOO for a slice the caller gives up: es is sorted
// in place when it has to be and must not be used afterwards. One pass
// checks every index and notices input that is already strictly
// row-major — what every writer of canonical COO sends — in which case
// there is nothing to sort and nothing to merge.
func NewCOOOwned(rows, cols int, es []Entry) (*COO, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("sparse: non-positive dimensions %dx%d", rows, cols)
	}
	sorted := true
	prevRow, prevCol := -1, -1
	for _, e := range es {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of range for %dx%d matrix",
				e.Row, e.Col, rows, cols)
		}
		if e.Row < prevRow || (e.Row == prevRow && e.Col <= prevCol) {
			sorted = false
		}
		prevRow, prevCol = e.Row, e.Col
	}
	if !sorted {
		sortEntries(es)
	}
	c := &COO{
		Pattern: Pattern{
			rows: rows, cols: cols,
			Rows: make([]int32, 0, len(es)),
			Cols: make([]int32, 0, len(es)),
		},
		Vals: make([]float64, 0, len(es)),
	}
	for i := 0; i < len(es); {
		j := i + 1
		v := es[i].Val
		for j < len(es) && es[j].Row == es[i].Row && es[j].Col == es[i].Col {
			v += es[j].Val
			j++
		}
		if v != 0 {
			c.Rows = append(c.Rows, int32(es[i].Row))
			c.Cols = append(c.Cols, int32(es[i].Col))
			c.Vals = append(c.Vals, v)
		}
		i = j
	}
	return c, nil
}

// NewCOOCanonical is NewPattern with values: index arrays that already
// are canonical and a parallel array with no zero in it, verified and
// not trusted like a Pattern's. The slices belong to the matrix
// afterwards.
func NewCOOCanonical(rows, cols int, ri, ci []int32, vals []float64) (*COO, error) {
	if len(ri) != len(vals) || len(ci) != len(vals) {
		return nil, fmt.Errorf("sparse: %d rows, %d cols, %d values: not parallel arrays", len(ri), len(ci), len(vals))
	}
	p, err := newPattern(rows, cols, ri, ci)
	if err != nil {
		return nil, err
	}
	for k, v := range vals {
		if v == 0 {
			return nil, fmt.Errorf("sparse: entry %d (%d,%d,%g) is not canonical", k, ri[k], ci[k], v)
		}
	}
	return &COO{Pattern: p, Vals: vals}, nil
}

// MustCOO is NewCOO that panics on error; for use with known-good data
// such as generators and tests.
func MustCOO(rows, cols int, entries []Entry) *COO {
	c, err := NewCOO(rows, cols, entries)
	if err != nil {
		panic(err)
	}
	return c
}

// Format returns FormatCOO.
func (c *COO) Format() Format { return FormatCOO }

// ToCOO returns the receiver itself (COO is canonical).
func (c *COO) ToCOO() *COO { return c }

// Bytes reports the storage footprint: two 4-byte indices and one 8-byte
// value per nonzero.
func (c *COO) Bytes() int64 { return int64(c.NNZ()) * (4 + 4 + 8) }

// Entries returns the nonzeros as a fresh triplet slice in canonical
// (row-major) order.
func (c *COO) Entries() []Entry {
	es := make([]Entry, c.NNZ())
	for k := range es {
		es[k] = Entry{Row: int(c.Rows[k]), Col: int(c.Cols[k]), Val: c.Vals[k]}
	}
	return es
}

// Dense materialises the matrix as a dense row-major slice of length
// rows*cols. Intended for tests and small matrices only.
func (c *COO) Dense() []float64 {
	d := make([]float64, c.rows*c.cols)
	for k, v := range c.Vals {
		d[int(c.Rows[k])*c.cols+int(c.Cols[k])] = v
	}
	return d
}

// RowCounts returns the number of nonzeros in each row.
func (c *COO) RowCounts() []int {
	counts := make([]int, c.rows)
	for _, r := range c.Rows {
		counts[r]++
	}
	return counts
}

// Equal reports whether two COO matrices have identical dimensions and
// nonzero structure/values. Both are assumed canonical.
func (c *COO) Equal(o *COO) bool {
	if c.rows != o.rows || c.cols != o.cols || len(c.Vals) != len(o.Vals) {
		return false
	}
	for k := range c.Vals {
		if c.Rows[k] != o.Rows[k] || c.Cols[k] != o.Cols[k] || c.Vals[k] != o.Vals[k] {
			return false
		}
	}
	return true
}
