package sparse

import "math"

// The map-based statistics pass and the two hashing conversions as they
// stood before the array-indexed sweep replaced them, kept verbatim
// (names prefixed) as the references TestComputeStatsMatchesReference,
// TestNewDIAMatchesReference, TestNewBSRMatchesReference and
// FuzzComputeStats compare against. Stats feed every label and stored
// record, so "equal" here means == on every field, not a tolerance.
// The Ref* variables hand them to the external test package, which can
// import synthgen where this one cannot.
var (
	RefComputeStats     = func(c *COO) Stats { return refComputeStats(c, true) }
	RefComputeStatsLite = func(c *COO) Stats { return refComputeStats(c, false) }
	RefNewDIA           = refNewDIA
	RefNewBSR           = refNewBSR
)

func refGatherMissFrac(cols []int32, sets int) float64 {
	if len(cols) == 0 {
		return 0
	}
	const ways = 4
	tags := make([]int32, sets*ways)
	for i := range tags {
		tags[i] = -1
	}
	stamp := make([]uint32, sets*ways)
	clock := uint32(0)
	misses := 0
	mask := int32(sets - 1)
	for _, c := range cols {
		line := c >> 3 // 8 doubles per 64-byte line
		set := int(line&mask) * ways
		clock++
		hit := false
		for w := 0; w < ways; w++ {
			if tags[set+w] == line {
				stamp[set+w] = clock
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		misses++
		victim := set
		for w := 1; w < ways; w++ {
			if stamp[set+w] < stamp[victim] {
				victim = set + w
			}
		}
		tags[victim] = line
		stamp[victim] = clock
	}
	return float64(misses) / float64(len(cols))
}

func refComputeStats(c *COO, gatherSim bool) Stats {
	rows, cols := c.Dims()
	s := Stats{Rows: rows, Cols: cols, NNZ: c.NNZ()}
	if s.NNZ == 0 {
		s.EmptyRows = rows
		return s
	}
	s.Density = float64(s.NNZ) / (float64(rows) * float64(cols))

	counts := c.RowCounts()
	s.MinRowNNZ = math.MaxInt
	sum, sumSq := 0.0, 0.0
	for _, n := range counts {
		if n == 0 {
			s.EmptyRows++
		}
		if n < s.MinRowNNZ {
			s.MinRowNNZ = n
		}
		if n > s.MaxRowNNZ {
			s.MaxRowNNZ = n
		}
		f := float64(n)
		sum += f
		sumSq += f * f
	}
	s.AvgRowNNZ = sum / float64(rows)
	variance := sumSq/float64(rows) - s.AvgRowNNZ*s.AvgRowNNZ
	if variance < 0 {
		variance = 0
	}
	s.RowNNZSD = math.Sqrt(variance)
	if s.AvgRowNNZ > 0 {
		s.RowNNZCV = s.RowNNZSD / s.AvgRowNNZ
	}
	if s.MaxRowNNZ > 0 {
		s.ELLFill = float64(s.NNZ) / (float64(rows) * float64(s.MaxRowNNZ))
	}
	s.HYBK = (s.NNZ + rows - 1) / rows
	for _, n := range counts {
		if n > s.HYBK {
			s.HYBTailNNZ += n - s.HYBK
		}
	}

	// Diagonal structure.
	maxDim := rows
	if cols > maxDim {
		maxDim = cols
	}
	nearBand := maxDim / 50
	if nearBand < 1 {
		nearBand = 1
	}
	diags := make(map[int32]struct{})
	near := 0
	mainDiag := 0
	spreadMin := make([]int32, rows)
	spreadMax := make([]int32, rows)
	for i := range spreadMin {
		spreadMin[i] = math.MaxInt32
		spreadMax[i] = -1
	}
	blocks := make(map[refBlockKey]struct{})
	for k := range c.Vals {
		r, cl := c.Rows[k], c.Cols[k]
		off := cl - r
		diags[off] = struct{}{}
		d := int(off)
		if d < 0 {
			d = -d
		}
		if d > s.Bandwidth {
			s.Bandwidth = d
		}
		if d <= nearBand {
			near++
		}
		if d == 0 {
			mainDiag++
		}
		if cl < spreadMin[r] {
			spreadMin[r] = cl
		}
		if cl > spreadMax[r] {
			spreadMax[r] = cl
		}
		blocks[refBlockKey{r / DefaultBlockSize, cl / DefaultBlockSize}] = struct{}{}
	}
	s.NumDiags = len(diags)
	s.DIAFill = float64(s.NNZ) / (float64(s.NumDiags) * float64(rows))
	s.DiagDominance = float64(near) / float64(s.NNZ)
	mainLen := rows
	if cols < mainLen {
		mainLen = cols
	}
	s.MainDiagFill = float64(mainDiag) / float64(mainLen)

	s.NumBlocks = len(blocks)
	s.BSRFill = float64(s.NNZ) / (float64(s.NumBlocks) * float64(DefaultBlockSize*DefaultBlockSize))

	spreadSum := 0.0
	occupied := 0
	for i := 0; i < rows; i++ {
		if spreadMax[i] < 0 {
			continue
		}
		occupied++
		spreadSum += float64(spreadMax[i]-spreadMin[i]+1) / float64(cols)
	}
	if occupied > 0 {
		s.AvgColSpread = spreadSum / float64(occupied)
	}

	if gatherSim {
		// 8 KiB = 32 sets × 4 ways × 64 B; 32 KiB = 128 sets.
		s.GatherMiss8K = refGatherMissFrac(c.Cols, 32)
		s.GatherMiss32K = refGatherMissFrac(c.Cols, 128)
	}
	return s
}

func refNewDIA(c *COO) *DIA {
	m := &DIA{rows: c.rows, cols: c.cols, Stride: c.rows, nnz: c.NNZ()}
	seen := make(map[int32]bool)
	for k := range c.Vals {
		off := c.Cols[k] - c.Rows[k]
		if !seen[off] {
			seen[off] = true
			m.Offsets = append(m.Offsets, off)
		}
	}
	refSortInt32(m.Offsets)
	lane := make(map[int32]int, len(m.Offsets))
	for i, off := range m.Offsets {
		lane[off] = i
	}
	m.Data = make([]float64, len(m.Offsets)*m.Stride)
	for k := range c.Vals {
		off := c.Cols[k] - c.Rows[k]
		m.Data[lane[off]*m.Stride+int(c.Rows[k])] = c.Vals[k]
	}
	return m
}

func refSortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func refNewBSR(c *COO, b int) *BSR {
	if b <= 0 {
		b = DefaultBlockSize
	}
	m := &BSR{
		rows: c.rows, cols: c.cols, B: b,
		BlockRows: (c.rows + b - 1) / b,
		BlockCols: (c.cols + b - 1) / b,
		nnz:       c.NNZ(),
	}
	// Pass 1: identify occupied blocks per block row. Entries are in
	// row-major order, so blocks are discovered grouped by block row.
	blockID := make(map[refBlockKey]int)
	var keys []refBlockKey
	for k := range c.Vals {
		key := refBlockKey{c.Rows[k] / int32(b), c.Cols[k] / int32(b)}
		if _, ok := blockID[key]; !ok {
			blockID[key] = 0
			keys = append(keys, key)
		}
	}
	// Sort keys block-row-major.
	refSortBlockKeys(keys)
	for i, key := range keys {
		blockID[key] = i
	}
	m.RowPtr = make([]int32, m.BlockRows+1)
	m.ColIdx = make([]int32, len(keys))
	for i, key := range keys {
		m.RowPtr[key.br+1]++
		m.ColIdx[i] = key.bc
	}
	for i := 0; i < m.BlockRows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	// Pass 2: scatter values into blocks.
	m.Blocks = make([]float64, len(keys)*b*b)
	for k := range c.Vals {
		r, col := int(c.Rows[k]), int(c.Cols[k])
		key := refBlockKey{int32(r / b), int32(col / b)}
		id := blockID[key]
		lr, lc := r%b, col%b
		m.Blocks[id*b*b+lr*b+lc] = c.Vals[k]
	}
	return m
}

type refBlockKey struct{ br, bc int32 }

func refSortBlockKeys(keys []refBlockKey) {
	// Insertion sort is fine: keys arrive nearly sorted because COO is
	// canonical row-major.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0; j-- {
			a, bb := keys[j-1], keys[j]
			if a.br < bb.br || (a.br == bb.br && a.bc <= bb.bc) {
				break
			}
			keys[j-1], keys[j] = keys[j], keys[j-1]
		}
	}
}
