package sparse

import "fmt"

// Pattern is where a matrix's nonzeros are and nothing else: its
// dimensions and the row and column index of every stored position in
// canonical order (strictly row-major, so no position twice). It is
// everything a format decision reads — the CNN's representations
// (binary, density, distance histograms), Fingerprint, Stats and the
// feedback log's captured pattern are all functions of positions — so
// the code between a request and its answer carries a Pattern and never
// converts a value.
//
// It is a type of its own, embedded in COO, and not a COO whose Vals is
// nil: a pattern cannot be multiplied or converted to a storage format,
// and no kernel accepts one, where a value-less COO would type-check
// everywhere and multiply to zeros.
type Pattern struct {
	rows, cols int
	Rows       []int32
	Cols       []int32
}

// NewPattern adopts index arrays that already are canonical — every
// index in range, strictly row-major — as a reader that checked all
// that while scanning hands them over. It verifies rather than trusts:
// one allocation-free pass, and positions that are not canonical are an
// error, not a pattern that breaks every consumer's invariant. The
// slices belong to the pattern afterwards.
func NewPattern(rows, cols int, ri, ci []int32) (*Pattern, error) {
	p, err := newPattern(rows, cols, ri, ci)
	if err != nil {
		return nil, err
	}
	return &p, nil
}

func newPattern(rows, cols int, ri, ci []int32) (Pattern, error) {
	if rows <= 0 || cols <= 0 {
		return Pattern{}, fmt.Errorf("sparse: non-positive dimensions %dx%d", rows, cols)
	}
	if len(ri) != len(ci) {
		return Pattern{}, fmt.Errorf("sparse: %d rows, %d cols: not parallel arrays", len(ri), len(ci))
	}
	prev := int64(-1)
	for k, r := range ri {
		c := ci[k]
		if r < 0 || int(r) >= rows || c < 0 || int(c) >= cols {
			return Pattern{}, fmt.Errorf("sparse: entry (%d,%d) out of range for %dx%d matrix", r, c, rows, cols)
		}
		pos := int64(r)<<32 | int64(c)
		if pos <= prev {
			return Pattern{}, fmt.Errorf("sparse: entry %d (%d,%d) is not canonical", k, r, c)
		}
		prev = pos
	}
	return Pattern{rows: rows, cols: cols, Rows: ri, Cols: ci}, nil
}

// PatternOf is &m.Pattern, and nil for a nil matrix.
func PatternOf(m *COO) *Pattern {
	if m == nil {
		return nil
	}
	return &m.Pattern
}

// UnitCOO builds the matrix a stored pattern stands for: a 1 at each
// position. The positions need not be canonical, since NewCOO range-checks
// and sorts them, so a corrupt pattern is an error here rather than a
// panic downstream. The values do not matter to a format decision, which
// reads positions only.
func UnitCOO(rows, cols int, ri, ci []int32) (*COO, error) {
	if len(ri) != len(ci) {
		return nil, fmt.Errorf("sparse: pattern arrays disagree (%d rows, %d cols)", len(ri), len(ci))
	}
	es := make([]Entry, len(ri))
	for k := range ri {
		es[k] = Entry{Row: int(ri[k]), Col: int(ci[k]), Val: 1}
	}
	return NewCOOOwned(rows, cols, es)
}

// Dims returns (rows, cols).
func (p *Pattern) Dims() (int, int) { return p.rows, p.cols }

// NNZ returns the number of stored positions.
func (p *Pattern) NNZ() int { return len(p.Rows) }
