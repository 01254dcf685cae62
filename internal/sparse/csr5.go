package sparse

// CSR5 implements the tiled, SIMD/GPU-friendly CSR variant of Liu &
// Vinter (ICS'15), which the paper adds to cuSPARSE's format set for its
// GPU experiments. The nonzero stream of a CSR matrix is partitioned
// into 2-D tiles of Omega lanes × Sigma elements; within a tile, values
// and column indices are stored transposed (element i of lane l sits at
// position i·Omega+l) so that parallel lanes access consecutive memory,
// and a per-lane bit flag marks where new rows start so a segmented sum
// can reduce partial products without a serial row loop. Rows may span
// lane and tile boundaries; every flush accumulates (+=) into y, which
// makes cross-boundary segments compose correctly.
//
// Relative to the published format this implementation stores the
// per-segment row indices explicitly (SegRows) instead of deriving them
// from y_offset/seg_offset arithmetic; that sacrifices a few bytes per
// segment to keep empty-row handling simple while preserving the tile
// layout, the bit-flag segmented sum, and the load-balanced execution
// shape that make CSR5 interesting for format selection.
type CSR5 struct {
	rows, cols int
	Omega      int // lanes per tile (SIMD width / warp fraction)
	Sigma      int // elements per lane

	NumTiles int
	ValsT    []float64 // NumTiles × Sigma × Omega, transposed tiles
	ColIdxT  []int32   // same layout as ValsT
	BitFlag  []uint64  // NumTiles × Omega words; bit i = element i starts a row
	LaneRow  []int32   // NumTiles × Omega: row of each lane's first element
	SegRows  []int32   // row started by each flagged element, tile-lane order
	SegPtr   []int32   // per (tile,lane): start into SegRows, len NumTiles*Omega+1
	TailRows []int32   // remainder elements after the last full tile
	TailCols []int32
	TailVals []float64
	nnz      int
}

// Default CSR5 tile geometry: 4 lanes × 16 elements, a CPU-SIMD-scale
// tile that keeps tiles meaningful on the small matrices used in tests.
const (
	DefaultOmega = 4
	DefaultSigma = 16
)

// NewCSR5 converts a canonical COO matrix to CSR5 with the given tile
// geometry (defaults applied when omega or sigma is <= 0).
func NewCSR5(c *COO, omega, sigma int) *CSR5 {
	if omega <= 0 {
		omega = DefaultOmega
	}
	if sigma <= 0 {
		sigma = DefaultSigma
	}
	if sigma > 64 {
		sigma = 64 // one uint64 bit-flag word per lane
	}
	m := &CSR5{rows: c.rows, cols: c.cols, Omega: omega, Sigma: sigma, nnz: c.NNZ()}
	tileElems := omega * sigma
	m.NumTiles = c.NNZ() / tileElems

	// isRowStart[k]: element k is the first nonzero of its row in the
	// canonical row-major stream.
	nnz := c.NNZ()
	m.ValsT = make([]float64, m.NumTiles*tileElems)
	m.ColIdxT = make([]int32, m.NumTiles*tileElems)
	m.BitFlag = make([]uint64, m.NumTiles*omega)
	m.LaneRow = make([]int32, m.NumTiles*omega)
	m.SegPtr = make([]int32, m.NumTiles*omega+1)

	for t := 0; t < m.NumTiles; t++ {
		base := t * tileElems
		for l := 0; l < omega; l++ {
			laneIdx := t*omega + l
			laneBase := base + l*sigma
			m.LaneRow[laneIdx] = c.Rows[laneBase]
			var flags uint64
			for i := 0; i < sigma; i++ {
				k := laneBase + i
				// Transposed placement for coalesced lane access.
				m.ValsT[base+i*omega+l] = c.Vals[k]
				m.ColIdxT[base+i*omega+l] = c.Cols[k]
				if k == 0 || c.Rows[k] != c.Rows[k-1] {
					flags |= 1 << uint(i)
					m.SegRows = append(m.SegRows, c.Rows[k])
				}
			}
			m.BitFlag[laneIdx] = flags
			m.SegPtr[laneIdx+1] = int32(len(m.SegRows))
		}
	}
	// Remainder tail, processed COO-style.
	for k := m.NumTiles * tileElems; k < nnz; k++ {
		m.TailRows = append(m.TailRows, c.Rows[k])
		m.TailCols = append(m.TailCols, c.Cols[k])
		m.TailVals = append(m.TailVals, c.Vals[k])
	}
	return m
}

// Dims returns (rows, cols).
func (m *CSR5) Dims() (int, int) { return m.rows, m.cols }

// NNZ returns the number of stored nonzeros.
func (m *CSR5) NNZ() int { return m.nnz }

// Format returns FormatCSR5.
func (m *CSR5) Format() Format { return FormatCSR5 }

// Bytes reports the storage footprint: transposed tiles, descriptors and
// tail.
func (m *CSR5) Bytes() int64 {
	return int64(len(m.ValsT))*8 + int64(len(m.ColIdxT))*4 +
		int64(len(m.BitFlag))*8 + int64(len(m.LaneRow))*4 +
		int64(len(m.SegRows))*4 + int64(len(m.SegPtr))*4 +
		int64(len(m.TailVals))*(8+4+4)
}

// ToCOO converts back to canonical COO.
func (m *CSR5) ToCOO() *COO {
	es := make([]Entry, 0, m.nnz)
	omega, sigma := m.Omega, m.Sigma
	tileElems := omega * sigma
	for t := 0; t < m.NumTiles; t++ {
		base := t * tileElems
		for l := 0; l < omega; l++ {
			laneIdx := t*omega + l
			flags := m.BitFlag[laneIdx]
			cur := m.LaneRow[laneIdx]
			seg := m.SegPtr[laneIdx]
			for i := 0; i < sigma; i++ {
				if flags&(1<<uint(i)) != 0 {
					cur = m.SegRows[seg]
					seg++
				}
				p := base + i*omega + l
				if v := m.ValsT[p]; v != 0 {
					es = append(es, Entry{Row: int(cur), Col: int(m.ColIdxT[p]), Val: v})
				}
			}
		}
	}
	for k, v := range m.TailVals {
		if v != 0 {
			es = append(es, Entry{Row: int(m.TailRows[k]), Col: int(m.TailCols[k]), Val: v})
		}
	}
	return MustCOO(m.rows, m.cols, es)
}
