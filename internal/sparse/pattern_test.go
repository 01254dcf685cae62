package sparse

import "testing"

// TestNewPatternVerifies: NewPattern and NewCOOCanonical adopt index
// arrays only after checking what every consumer relies on — in range,
// strictly row-major (so no position twice), parallel — and the COO
// form refuses a zero value on top.
func TestNewPatternVerifies(t *testing.T) {
	ones := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	for _, tc := range []struct {
		name       string
		rows, cols int
		ri, ci     []int32
		vals       []float64 // nil: one 1 per position
		ok, cooOK  bool
	}{
		{name: "canonical", rows: 3, cols: 4, ri: []int32{0, 0, 2}, ci: []int32{1, 3, 0}, ok: true, cooOK: true},
		{name: "empty", rows: 3, cols: 4, ok: true, cooOK: true},
		{name: "last cell", rows: 3, cols: 4, ri: []int32{2}, ci: []int32{3}, ok: true, cooOK: true},
		{name: "zero rows", rows: 0, cols: 4},
		{name: "negative cols", rows: 3, cols: -1},
		{name: "row out of range", rows: 3, cols: 4, ri: []int32{3}, ci: []int32{0}},
		{name: "col out of range", rows: 3, cols: 4, ri: []int32{0}, ci: []int32{4}},
		{name: "negative row", rows: 3, cols: 4, ri: []int32{-1}, ci: []int32{0}},
		{name: "negative col", rows: 3, cols: 4, ri: []int32{0}, ci: []int32{-1}},
		{name: "rows descend", rows: 3, cols: 4, ri: []int32{1, 0}, ci: []int32{0, 0}},
		{name: "cols descend within a row", rows: 3, cols: 4, ri: []int32{1, 1}, ci: []int32{2, 1}},
		{name: "position twice", rows: 3, cols: 4, ri: []int32{1, 1}, ci: []int32{2, 2}},
		{name: "more rows than cols", rows: 3, cols: 4, ri: []int32{0, 1}, ci: []int32{0}},
		{name: "more cols than rows", rows: 3, cols: 4, ri: []int32{0}, ci: []int32{0, 1}},
		{name: "zero value", rows: 3, cols: 4, ri: []int32{0, 1}, ci: []int32{0, 1}, vals: []float64{1, 0}, ok: true},
		{name: "fewer values", rows: 3, cols: 4, ri: []int32{0, 1}, ci: []int32{0, 1}, vals: []float64{1}, ok: true},
	} {
		p, err := NewPattern(tc.rows, tc.cols, tc.ri, tc.ci)
		if (err == nil) != tc.ok {
			t.Errorf("%s: NewPattern err = %v, want accepted=%v", tc.name, err, tc.ok)
		}
		if err == nil {
			if r, c := p.Dims(); r != tc.rows || c != tc.cols || p.NNZ() != len(tc.ri) {
				t.Errorf("%s: pattern is %dx%d with %d positions", tc.name, r, c, p.NNZ())
			}
		}
		vals := tc.vals
		if vals == nil {
			vals = ones(len(tc.ri))
		}
		m, err := NewCOOCanonical(tc.rows, tc.cols, tc.ri, tc.ci, vals)
		if (err == nil) != tc.cooOK {
			t.Errorf("%s: NewCOOCanonical err = %v, want accepted=%v", tc.name, err, tc.cooOK)
		}
		if err == nil && (m.NNZ() != len(m.Vals) || m.Fingerprint() != p.Fingerprint() || m.Stats() != p.Stats()) {
			t.Errorf("%s: the matrix and its pattern disagree", tc.name)
		}
	}
}

// TestPatternOf: a matrix's pattern is the matrix's own arrays, and a
// nil matrix has a nil pattern for the validating entry points to
// refuse.
func TestPatternOf(t *testing.T) {
	if PatternOf(nil) != nil {
		t.Fatal("nil matrix has a pattern")
	}
	m := MustCOO(3, 3, []Entry{{Row: 2, Col: 1, Val: 4}, {Row: 0, Col: 0, Val: -1}})
	p := PatternOf(m)
	if p != &m.Pattern || &p.Rows[0] != &m.Rows[0] || p.NNZ() != 2 {
		t.Fatal("PatternOf copied")
	}
	if ComputeStats(m) != p.Stats() || Fingerprint(m) != p.Fingerprint() {
		t.Fatal("the *COO forms are not the pattern's")
	}
}
