package sparse

// ELL (ELLPACK) stores each row's nonzeros left-justified into a dense
// rows×Width array, where Width is the maximum row length. Rows shorter
// than Width are padded with a sentinel column index of -1 and a zero
// value. ELL is the vector-friendly format: it wins when row lengths are
// uniform and loses badly on skewed rows, which is the structural signal
// the paper's row histograms carry.
type ELL struct {
	rows, cols int
	Width      int
	ColIdx     []int32   // rows × Width, row-major, -1 = padding
	Vals       []float64 // rows × Width, row-major
	nnz        int
}

// NewELL converts a canonical COO matrix to ELL.
func NewELL(c *COO) *ELL {
	m := &ELL{rows: c.rows, cols: c.cols, nnz: c.NNZ()}
	counts := c.RowCounts()
	for _, n := range counts {
		if n > m.Width {
			m.Width = n
		}
	}
	m.ColIdx = make([]int32, c.rows*m.Width)
	for i := range m.ColIdx {
		m.ColIdx[i] = -1
	}
	m.Vals = make([]float64, c.rows*m.Width)
	next := make([]int, c.rows)
	for k := range c.Vals {
		r := int(c.Rows[k])
		p := r*m.Width + next[r]
		m.ColIdx[p] = c.Cols[k]
		m.Vals[p] = c.Vals[k]
		next[r]++
	}
	return m
}

// Dims returns (rows, cols).
func (m *ELL) Dims() (int, int) { return m.rows, m.cols }

// NNZ returns the number of logical nonzeros (excluding padding).
func (m *ELL) NNZ() int { return m.nnz }

// Format returns FormatELL.
func (m *ELL) Format() Format { return FormatELL }

// Bytes reports the storage footprint including padding.
func (m *ELL) Bytes() int64 {
	return int64(m.rows) * int64(m.Width) * (4 + 8)
}

// ToCOO converts back to canonical COO.
func (m *ELL) ToCOO() *COO {
	var es []Entry
	for i := 0; i < m.rows; i++ {
		base := i * m.Width
		for w := 0; w < m.Width; w++ {
			c := m.ColIdx[base+w]
			if c < 0 {
				break
			}
			if v := m.Vals[base+w]; v != 0 {
				es = append(es, Entry{Row: i, Col: int(c), Val: v})
			}
		}
	}
	return MustCOO(m.rows, m.cols, es)
}

// HYB is the hybrid ELL+COO format (cuSPARSE's HYB): the first K
// nonzeros of each row go into a regular ELL slab and the overflow into
// a COO tail. It recovers ELL's regularity on mostly-uniform matrices
// that have a few heavy rows.
type HYB struct {
	rows, cols int
	ELL        *ELL
	Tail       *COO
	K          int
}

// NewHYB converts a canonical COO matrix to HYB with ELL width k. If
// k <= 0, a width is chosen so the ELL part covers roughly the mean row
// length (the cuSPARSE auto heuristic).
func NewHYB(c *COO, k int) *HYB {
	if k <= 0 {
		// Mean row length, rounded up; at least 1 when the matrix has
		// any nonzeros.
		if c.NNZ() > 0 {
			k = (c.NNZ() + c.rows - 1) / c.rows
			if k < 1 {
				k = 1
			}
		}
	}
	var ellEntries, tailEntries []Entry
	next := make([]int, c.rows)
	for idx := range c.Vals {
		e := Entry{Row: int(c.Rows[idx]), Col: int(c.Cols[idx]), Val: c.Vals[idx]}
		if next[e.Row] < k {
			ellEntries = append(ellEntries, e)
			next[e.Row]++
		} else {
			tailEntries = append(tailEntries, e)
		}
	}
	h := &HYB{rows: c.rows, cols: c.cols, K: k}
	ellCOO := MustCOO(c.rows, c.cols, ellEntries)
	h.ELL = NewELL(ellCOO)
	// Force the slab width to exactly k so the format's cost is governed
	// by the chosen split, not by the densest retained row.
	if h.ELL.Width < k && c.NNZ() > 0 {
		h.ELL = widenELL(h.ELL, k)
	}
	h.Tail = MustCOO(c.rows, c.cols, tailEntries)
	return h
}

// widenELL pads an ELL slab out to width k.
func widenELL(e *ELL, k int) *ELL {
	w := &ELL{rows: e.rows, cols: e.cols, Width: k, nnz: e.nnz}
	w.ColIdx = make([]int32, e.rows*k)
	for i := range w.ColIdx {
		w.ColIdx[i] = -1
	}
	w.Vals = make([]float64, e.rows*k)
	for i := 0; i < e.rows; i++ {
		copy(w.ColIdx[i*k:i*k+e.Width], e.ColIdx[i*e.Width:(i+1)*e.Width])
		copy(w.Vals[i*k:i*k+e.Width], e.Vals[i*e.Width:(i+1)*e.Width])
	}
	return w
}

// Dims returns (rows, cols).
func (m *HYB) Dims() (int, int) { return m.rows, m.cols }

// NNZ returns the total number of logical nonzeros.
func (m *HYB) NNZ() int { return m.ELL.NNZ() + m.Tail.NNZ() }

// Format returns FormatHYB.
func (m *HYB) Format() Format { return FormatHYB }

// Bytes reports the combined footprint of the ELL slab and COO tail.
func (m *HYB) Bytes() int64 { return m.ELL.Bytes() + m.Tail.Bytes() }

// ToCOO converts back to canonical COO.
func (m *HYB) ToCOO() *COO {
	es := m.ELL.ToCOO().Entries()
	es = append(es, m.Tail.Entries()...)
	return MustCOO(m.rows, m.cols, es)
}
