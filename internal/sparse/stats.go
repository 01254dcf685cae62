package sparse

import "math"

// Stats holds the structural statistics of a sparse matrix that drive
// both the machine cost models and the SMAT-style hand-crafted feature
// vector of the decision-tree baseline.
type Stats struct {
	Rows, Cols int
	NNZ        int

	Density float64 // nnz / (rows·cols)

	// Row-length distribution.
	MinRowNNZ int
	MaxRowNNZ int
	AvgRowNNZ float64
	RowNNZSD  float64 // standard deviation of row lengths
	RowNNZCV  float64 // coefficient of variation (SD/mean), GPU imbalance proxy
	EmptyRows int
	ELLFill   float64 // nnz / (rows·maxRowNNZ): ELL slab efficiency

	// Diagonal structure.
	NumDiags      int     // occupied diagonals
	DIAFill       float64 // nnz / (numDiags·rows): DIA lane efficiency
	DiagDominance float64 // fraction of nnz within |row-col| <= max(rows,cols)/50
	MainDiagFill  float64 // fraction of principal diagonal occupied

	// Block structure (4×4 tiles, the paper's BSR block size).
	NumBlocks int
	BSRFill   float64 // nnz / (numBlocks·16): BSR block efficiency

	// HYB split with the auto width K = ceil(nnz/rows): how many
	// nonzeros overflow into the COO tail.
	HYBK       int
	HYBTailNNZ int

	// Locality proxies.
	AvgColSpread float64 // mean per-row span (maxcol-mincol+1)/cols
	Bandwidth    int     // max |row-col| over nonzeros

	// Measured gather locality: the miss fraction of the x[col] access
	// stream (canonical row-major nonzero order) through a small
	// set-associative LRU cache, at two capacities. Unlike the scalar
	// proxies above, these are functions of the full spatial pattern —
	// the information the paper's image/histogram representations
	// preserve and hand-crafted feature vectors drop. They drive the
	// gather-traffic term of the machine cost models.
	GatherMiss8K  float64 // 8 KiB of 64-byte lines, 4-way
	GatherMiss32K float64 // 32 KiB of 64-byte lines, 4-way
}

// lruSet is one 4-way set of the gather-cache simulation: line tags in
// recency order, most recent first, -1 for a way never filled.
type lruSet [4]int32

// touch moves line to the front of the set and reports whether it was
// absent. Recency order needs no timestamps: the way that falls off the
// end is the least recently used one, and never-filled ways sit at the
// back, so the miss count is that of a stamped LRU.
func (s *lruSet) touch(line int32) bool {
	switch line {
	case s[0]:
		return false
	case s[1]:
		s[1], s[0] = s[0], line
		return false
	case s[2]:
		s[2], s[1], s[0] = s[1], s[0], line
		return false
	}
	miss := s[3] != line
	s[3], s[2], s[1], s[0] = s[2], s[1], s[0], line
	return miss
}

// Stats derives the structural statistics in one sweep over the
// positions, including the gather-cache simulation.
func (p *Pattern) Stats() Stats { return p.computeStats(true) }

// StatsLite derives the scalar statistics only, skipping the
// gather-cache simulation — the extraction cost profile of the
// published SMAT feature set, used by the baseline's feature extractor
// and the §7.6 overhead accounting.
func (p *Pattern) StatsLite() Stats { return p.computeStats(false) }

// ComputeStats is c's Pattern.Stats.
func ComputeStats(c *COO) Stats { return c.Pattern.Stats() }

// computeStats walks the row runs of c once. A Pattern is strictly
// row-major, which turns every set the statistics need into an array:
// a row's column span is its first and last entry, the occupied
// diagonals are a bitmap indexed by col−row+rows−1, and because the
// rows of one block row are adjacent, a block column stamped with the
// block row that last touched it is a set of occupied blocks. Scratch
// is that bitmap and the stamps — (rows+cols)/8 + cols bytes; the two
// gather caches live on the stack.
func (c *Pattern) computeStats(gatherSim bool) Stats {
	rows, cols := c.Dims()
	s := Stats{Rows: rows, Cols: cols, NNZ: c.NNZ()}
	if s.NNZ == 0 {
		s.EmptyRows = rows
		return s
	}
	s.Density = float64(s.NNZ) / (float64(rows) * float64(cols))
	s.HYBK = (s.NNZ + rows - 1) / rows

	// The near-diagonal window is maxDim/50 — one bin of the paper's
	// 50-bin distance histogram, so the histogram representation carries
	// this locality signal explicitly.
	nearBand := max(int32(max(rows, cols)/50), 1)
	diags := make([]uint64, (rows+cols+62)/64)
	blockStamp := make([]int32, (cols+DefaultBlockSize-1)/DefaultBlockSize) // block row + 1; 0 = never
	// 8 KiB = 32 sets × 4 ways × 64 B; 32 KiB = 128 sets.
	var cache8K [32]lruSet
	var cache32K [128]lruSet
	if gatherSim {
		for i := range cache8K {
			cache8K[i] = lruSet{-1, -1, -1, -1}
		}
		for i := range cache32K {
			cache32K[i] = lruSet{-1, -1, -1, -1}
		}
	}

	// Sums run over occupied rows in row order, which is bit-identical
	// to summing every row: an empty row would add 0.0.
	occupied, near, mainDiag, miss8K, miss32K := 0, 0, 0, 0, 0
	sum, sumSq, spreadSum := 0.0, 0.0, 0.0
	s.MinRowNNZ = s.NNZ
	for k := 0; k < s.NNZ; {
		r := c.Rows[k]
		end := k + 1
		for end < s.NNZ && c.Rows[end] == r {
			end++
		}
		n := end - k
		occupied++
		s.MinRowNNZ = min(s.MinRowNNZ, n)
		s.MaxRowNNZ = max(s.MaxRowNNZ, n)
		f := float64(n)
		sum += f
		sumSq += f * f
		if n > s.HYBK {
			s.HYBTailNNZ += n - s.HYBK
		}
		first, last := c.Cols[k], c.Cols[end-1]
		spreadSum += float64(last-first+1) / float64(cols)
		s.Bandwidth = max(s.Bandwidth, int(r-first), int(last-r))

		diagBase := rows - 1 - int(r)
		stamp := r/DefaultBlockSize + 1
		for _, cl := range c.Cols[k:end] {
			d := cl - r
			if d == 0 {
				mainDiag++
			}
			if d < 0 {
				d = -d
			}
			if d <= nearBand {
				near++
			}
			if bit := uint(diagBase + int(cl)); diags[bit/64]&(1<<(bit%64)) == 0 {
				diags[bit/64] |= 1 << (bit % 64)
				s.NumDiags++
			}
			if bc := cl / DefaultBlockSize; blockStamp[bc] != stamp {
				blockStamp[bc] = stamp
				s.NumBlocks++
			}
			if gatherSim {
				line := cl >> 3 // 8 doubles per 64-byte line
				if cache8K[line&31].touch(line) {
					miss8K++
				}
				if cache32K[line&127].touch(line) {
					miss32K++
				}
			}
		}
		k = end
	}

	s.EmptyRows = rows - occupied
	if s.EmptyRows > 0 {
		s.MinRowNNZ = 0
	}
	s.AvgRowNNZ = sum / float64(rows)
	variance := sumSq/float64(rows) - s.AvgRowNNZ*s.AvgRowNNZ
	if variance < 0 {
		variance = 0
	}
	s.RowNNZSD = math.Sqrt(variance)
	s.RowNNZCV = s.RowNNZSD / s.AvgRowNNZ
	s.ELLFill = float64(s.NNZ) / (float64(rows) * float64(s.MaxRowNNZ))

	s.DIAFill = float64(s.NNZ) / (float64(s.NumDiags) * float64(rows))
	s.DiagDominance = float64(near) / float64(s.NNZ)
	s.MainDiagFill = float64(mainDiag) / float64(min(rows, cols))
	s.BSRFill = float64(s.NNZ) / (float64(s.NumBlocks) * float64(DefaultBlockSize*DefaultBlockSize))
	s.AvgColSpread = spreadSum / float64(occupied)
	if gatherSim {
		s.GatherMiss8K = float64(miss8K) / float64(s.NNZ)
		s.GatherMiss32K = float64(miss32K) / float64(s.NNZ)
	}
	return s
}
