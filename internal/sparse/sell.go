package sparse

import "sort"

// SELL implements SELL-C-σ (Kreutzer, Hager, Wellein et al.), the
// sliced-ELLPACK format referenced by the paper's related work via the
// Anzt et al. GPU study: rows are sorted by length within windows of σ
// rows, grouped into chunks of C rows, and each chunk is padded only to
// its own longest row. It keeps ELL's vector-friendly layout while
// bounding the padding that kills plain ELL on skewed matrices —
// covering the middle ground between ELL and CSR in the format-selection
// space.
type SELL struct {
	rows, cols int
	C          int     // chunk height (SIMD width)
	Sigma      int     // sorting window, multiple of C
	Perm       []int32 // Perm[i] = original row stored at slot i
	ChunkPtr   []int32 // start of each chunk in ColIdx/Vals
	ChunkLen   []int32 // width (max row length) of each chunk
	ColIdx     []int32 // per chunk: ChunkLen×C entries, column-major, -1 pad
	Vals       []float64
	nnz        int
}

// Default SELL geometry: chunks of 8 rows sorted within windows of 64.
const (
	DefaultSellC     = 8
	DefaultSellSigma = 64
)

// NewSELL converts a canonical COO matrix to SELL-C-σ. c and sigma
// default when non-positive; sigma is rounded up to a multiple of c.
func NewSELL(m *COO, c, sigma int) *SELL {
	if c <= 0 {
		c = DefaultSellC
	}
	if sigma <= 0 {
		sigma = DefaultSellSigma
	}
	if sigma%c != 0 {
		sigma = (sigma/c + 1) * c
	}
	rows, cols := m.Dims()
	s := &SELL{rows: rows, cols: cols, C: c, Sigma: sigma, nnz: m.NNZ()}

	counts := m.RowCounts()
	// Row starts in the canonical COO stream.
	starts := make([]int, rows+1)
	for i := 0; i < rows; i++ {
		starts[i+1] = starts[i] + counts[i]
	}

	// Sort rows by descending length within each σ window.
	s.Perm = make([]int32, rows)
	for i := range s.Perm {
		s.Perm[i] = int32(i)
	}
	for lo := 0; lo < rows; lo += sigma {
		hi := lo + sigma
		if hi > rows {
			hi = rows
		}
		win := s.Perm[lo:hi]
		sort.SliceStable(win, func(a, b int) bool {
			return counts[win[a]] > counts[win[b]]
		})
	}

	nchunks := (rows + c - 1) / c
	s.ChunkPtr = make([]int32, nchunks+1)
	s.ChunkLen = make([]int32, nchunks)
	total := 0
	for ch := 0; ch < nchunks; ch++ {
		width := 0
		for r := ch * c; r < (ch+1)*c && r < rows; r++ {
			if n := counts[s.Perm[r]]; n > width {
				width = n
			}
		}
		s.ChunkLen[ch] = int32(width)
		s.ChunkPtr[ch] = int32(total)
		total += width * c
	}
	s.ChunkPtr[nchunks] = int32(total)

	s.ColIdx = make([]int32, total)
	for i := range s.ColIdx {
		s.ColIdx[i] = -1
	}
	s.Vals = make([]float64, total)
	for ch := 0; ch < nchunks; ch++ {
		base := int(s.ChunkPtr[ch])
		width := int(s.ChunkLen[ch])
		for lane := 0; lane < c; lane++ {
			slot := ch*c + lane
			if slot >= rows {
				break
			}
			orig := int(s.Perm[slot])
			for w := 0; w < counts[orig]; w++ {
				// Column-major within the chunk for SIMD lanes.
				p := base + w*c + lane
				s.ColIdx[p] = m.Cols[starts[orig]+w]
				s.Vals[p] = m.Vals[starts[orig]+w]
			}
			_ = width
		}
	}
	return s
}

// Dims returns (rows, cols).
func (s *SELL) Dims() (int, int) { return s.rows, s.cols }

// NNZ returns the number of logical nonzeros.
func (s *SELL) NNZ() int { return s.nnz }

// Format returns FormatSELL.
func (s *SELL) Format() Format { return FormatSELL }

// NumChunks returns the number of row chunks.
func (s *SELL) NumChunks() int { return len(s.ChunkLen) }

// Bytes reports the storage footprint including per-chunk padding.
func (s *SELL) Bytes() int64 {
	return int64(len(s.ColIdx))*4 + int64(len(s.Vals))*8 +
		int64(len(s.Perm))*4 + int64(len(s.ChunkPtr)+len(s.ChunkLen))*4
}

// MulVec computes y = A·x chunk by chunk; lanes within a chunk walk the
// column-major slab in lockstep (the SIMD execution shape).
func (s *SELL) MulVec(y, x []float64) {
	checkMulVecDims(s.rows, s.cols, y, x, FormatSELL)
	c := s.C
	for ch := 0; ch < len(s.ChunkLen); ch++ {
		base := int(s.ChunkPtr[ch])
		width := int(s.ChunkLen[ch])
		for lane := 0; lane < c; lane++ {
			slot := ch*c + lane
			if slot >= s.rows {
				break
			}
			sum := 0.0
			for w := 0; w < width; w++ {
				p := base + w*c + lane
				col := s.ColIdx[p]
				if col < 0 {
					break
				}
				sum += s.Vals[p] * x[col]
			}
			y[s.Perm[slot]] = sum
		}
	}
}

// ToCOO converts back to canonical COO.
func (s *SELL) ToCOO() *COO {
	es := make([]Entry, 0, s.nnz)
	c := s.C
	for ch := 0; ch < len(s.ChunkLen); ch++ {
		base := int(s.ChunkPtr[ch])
		width := int(s.ChunkLen[ch])
		for lane := 0; lane < c; lane++ {
			slot := ch*c + lane
			if slot >= s.rows {
				break
			}
			orig := int(s.Perm[slot])
			for w := 0; w < width; w++ {
				p := base + w*c + lane
				col := s.ColIdx[p]
				if col < 0 {
					break
				}
				if v := s.Vals[p]; v != 0 {
					es = append(es, Entry{Row: orig, Col: int(col), Val: v})
				}
			}
		}
	}
	return MustCOO(s.rows, s.cols, es)
}
