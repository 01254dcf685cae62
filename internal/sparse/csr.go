package sparse

// CSR stores a sparse matrix in compressed sparse row form: RowPtr[i]
// marks where row i's entries begin in ColIdx/Vals (Figure 1 of the
// paper). It is the default format of most SpMV libraries and the
// baseline format for the paper's speedup-over-CSR measurements.
type CSR struct {
	rows, cols int
	RowPtr     []int32
	ColIdx     []int32
	Vals       []float64
}

// NewCSR converts a canonical COO matrix to CSR.
func NewCSR(c *COO) *CSR {
	m := &CSR{rows: c.rows, cols: c.cols}
	m.RowPtr = make([]int32, c.rows+1)
	m.ColIdx = make([]int32, c.NNZ())
	m.Vals = make([]float64, c.NNZ())
	for _, r := range c.Rows {
		m.RowPtr[r+1]++
	}
	// The running sum stays in a register: adding through RowPtr[i]
	// would chain each store to the next load.
	var s int32
	for i, n := range m.RowPtr[1:] {
		s += n
		m.RowPtr[i+1] = s
	}
	copy(m.ColIdx, c.Cols)
	copy(m.Vals, c.Vals)
	return m
}

// Dims returns (rows, cols).
func (m *CSR) Dims() (int, int) { return m.rows, m.cols }

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.Vals) }

// Format returns FormatCSR.
func (m *CSR) Format() Format { return FormatCSR }

// Bytes reports the storage footprint: row pointer, column index and
// value arrays.
func (m *CSR) Bytes() int64 {
	return int64(m.rows+1)*4 + int64(m.NNZ())*(4+8)
}

// ToCOO converts back to canonical COO.
func (m *CSR) ToCOO() *COO {
	c := &COO{
		Pattern: Pattern{
			rows: m.rows, cols: m.cols,
			Rows: make([]int32, m.NNZ()),
			Cols: make([]int32, m.NNZ()),
		},
		Vals: make([]float64, m.NNZ()),
	}
	for i := 0; i < m.rows; i++ {
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			c.Rows[j] = int32(i)
		}
	}
	copy(c.Cols, m.ColIdx)
	copy(c.Vals, m.Vals)
	return c
}

// Row returns the column indices and values of row i as sub-slices of
// the matrix's storage; callers must not modify them.
func (m *CSR) Row(i int) ([]int32, []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.ColIdx[lo:hi], m.Vals[lo:hi]
}
