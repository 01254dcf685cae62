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

// Dims returns (rows, cols).
func (p *Pattern) Dims() (int, int) { return p.rows, p.cols }

// NNZ returns the number of stored positions.
func (p *Pattern) NNZ() int { return len(p.Rows) }
