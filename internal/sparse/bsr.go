package sparse

import "slices"

// BSR (block sparse row) partitions the matrix into B×B tiles and stores
// every tile that contains at least one nonzero as a dense block, with
// CSR-style indexing over block rows. The paper's GPU experiments use
// cuSPARSE BSR with a 4×4 block size; BSR wins on matrices with dense
// block substructure (FEM-style meshes) and loses when blocks are mostly
// padding.
type BSR struct {
	rows, cols int
	B          int // block edge length
	BlockRows  int
	BlockCols  int
	RowPtr     []int32   // block-row pointer, len BlockRows+1
	ColIdx     []int32   // block-column index per stored block
	Blocks     []float64 // nblocks × B × B, row-major within a block
	nnz        int
}

// DefaultBlockSize is the 4×4 block edge used in the paper (footnote to
// Table 3).
const DefaultBlockSize = 4

// NewBSR converts a canonical COO matrix to BSR with block edge b
// (DefaultBlockSize if b <= 0). Matrix dimensions need not be multiples
// of b; edge blocks are implicitly zero-padded.
func NewBSR(c *COO, b int) *BSR {
	if b <= 0 {
		b = DefaultBlockSize
	}
	m := &BSR{
		rows: c.rows, cols: c.cols, B: b,
		BlockRows: (c.rows + b - 1) / b,
		BlockCols: (c.cols + b - 1) / b,
		nnz:       c.NNZ(),
	}
	// Pass 1: the occupied block columns of each block row. Entries are
	// row-major, so a block row's entries are one run, and a block
	// column stamped with the block row that last touched it is the set
	// of blocks seen in that run.
	nnz, bb := m.nnz, int32(b)
	m.RowPtr = make([]int32, m.BlockRows+1)
	m.ColIdx = make([]int32, 0, min(m.BlockRows, nnz))
	slot := make([]int32, m.BlockCols) // pass 1: block row + 1; pass 2: block id
	for k := 0; k < nnz; {
		br := c.Rows[k] / bb
		first := len(m.ColIdx)
		for rowEnd := (int(br) + 1) * b; k < nnz && int(c.Rows[k]) < rowEnd; k++ {
			if bc := c.Cols[k] / bb; slot[bc] != br+1 {
				slot[bc] = br + 1
				m.ColIdx = append(m.ColIdx, bc)
			}
		}
		slices.Sort(m.ColIdx[first:])
		m.RowPtr[br+1] = int32(len(m.ColIdx) - first)
	}
	for i := 0; i < m.BlockRows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	// Pass 2: scatter values into blocks, one block row's ids in slot
	// at a time.
	m.Blocks = make([]float64, len(m.ColIdx)*b*b)
	k := 0
	for br := 0; br < m.BlockRows && k < nnz; br++ {
		for p := m.RowPtr[br]; p < m.RowPtr[br+1]; p++ {
			slot[m.ColIdx[p]] = p
		}
		for rowEnd := (br + 1) * b; k < nnz && int(c.Rows[k]) < rowEnd; k++ {
			r, col := int(c.Rows[k]), int(c.Cols[k])
			m.Blocks[int(slot[col/b])*b*b+(r%b)*b+col%b] = c.Vals[k]
		}
	}
	return m
}

// Dims returns (rows, cols).
func (m *BSR) Dims() (int, int) { return m.rows, m.cols }

// NNZ returns the number of logical nonzeros (excluding block padding).
func (m *BSR) NNZ() int { return m.nnz }

// NumBlocks returns the number of stored dense blocks.
func (m *BSR) NumBlocks() int { return len(m.ColIdx) }

// Format returns FormatBSR.
func (m *BSR) Format() Format { return FormatBSR }

// Bytes reports the storage footprint including block padding.
func (m *BSR) Bytes() int64 {
	return int64(m.BlockRows+1)*4 + int64(len(m.ColIdx))*4 + int64(len(m.Blocks))*8
}

// ToCOO converts back to canonical COO, dropping padding zeros.
func (m *BSR) ToCOO() *COO {
	var es []Entry
	b := m.B
	for br := 0; br < m.BlockRows; br++ {
		for p := m.RowPtr[br]; p < m.RowPtr[br+1]; p++ {
			colBase := int(m.ColIdx[p]) * b
			rowBase := br * b
			blk := m.Blocks[int(p)*b*b:]
			for lr := 0; lr < b; lr++ {
				for lc := 0; lc < b; lc++ {
					v := blk[lr*b+lc]
					if v == 0 {
						continue
					}
					es = append(es, Entry{Row: rowBase + lr, Col: colBase + lc, Val: v})
				}
			}
		}
	}
	return MustCOO(m.rows, m.cols, es)
}
