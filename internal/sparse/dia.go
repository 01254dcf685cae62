package sparse

// DIA stores a sparse matrix by diagonals (Figure 1 of the paper): for
// each occupied diagonal d with offset k = col−row, Data holds a dense
// lane of length min(rows, cols) indexed by row, with zero padding where
// the diagonal falls outside the matrix. DIA is the format of choice for
// banded/diagonal matrices and the format whose selection the paper's
// histogram representation is designed to get right (Figure 4).
type DIA struct {
	rows, cols int
	Offsets    []int32   // diagonal offsets (col − row), ascending
	Data       []float64 // len(Offsets) lanes × Stride, row-indexed
	Stride     int       // lane length = rows
	nnz        int
}

// NewDIA converts a canonical COO matrix to DIA. Every diagonal that
// contains at least one nonzero gets a full lane, so the conversion can
// explode memory for matrices with scattered structure — that memory
// amplification is exactly why DIA is only chosen for diagonal-
// concentrated matrices. Stats.DIAFill measures it before converting.
func NewDIA(c *COO) *DIA {
	m := &DIA{rows: c.rows, cols: c.cols, Stride: c.rows, nnz: c.NNZ()}
	// lane is indexed by offset+rows−1: first a mark per occupied
	// diagonal, then, read in index order, its lane number — which
	// yields the offsets already ascending.
	lane := make([]int32, c.rows+c.cols-1)
	base := c.rows - 1
	for k, r := range c.Rows {
		lane[base+int(c.Cols[k]-r)] = 1
	}
	for i, mark := range lane {
		if mark != 0 {
			lane[i] = int32(len(m.Offsets))
			m.Offsets = append(m.Offsets, int32(i-base))
		}
	}
	m.Data = make([]float64, len(m.Offsets)*m.Stride)
	for k, r := range c.Rows {
		m.Data[int(lane[base+int(c.Cols[k]-r)])*m.Stride+int(r)] = c.Vals[k]
	}
	return m
}

// Dims returns (rows, cols).
func (m *DIA) Dims() (int, int) { return m.rows, m.cols }

// NNZ returns the number of logical nonzeros (excluding padding).
func (m *DIA) NNZ() int { return m.nnz }

// NumDiags returns the number of stored diagonals.
func (m *DIA) NumDiags() int { return len(m.Offsets) }

// Format returns FormatDIA.
func (m *DIA) Format() Format { return FormatDIA }

// Bytes reports the storage footprint including zero padding — the
// quantity that makes DIA lose on non-diagonal matrices.
func (m *DIA) Bytes() int64 {
	return int64(len(m.Offsets))*4 + int64(len(m.Data))*8
}

// ToCOO converts back to canonical COO, dropping padding zeros.
func (m *DIA) ToCOO() *COO {
	var es []Entry
	for d, off := range m.Offsets {
		k := int(off)
		for i := 0; i < m.rows; i++ {
			j := i + k
			if j < 0 || j >= m.cols {
				continue
			}
			v := m.Data[d*m.Stride+i]
			if v != 0 {
				es = append(es, Entry{Row: i, Col: j, Val: v})
			}
		}
	}
	return MustCOO(m.rows, m.cols, es)
}
