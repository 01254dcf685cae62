package sparse

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// paperMatrix is the 4×4 example from Figure 1 of the paper.
func paperMatrix(t *testing.T) *COO {
	t.Helper()
	c, err := NewCOO(4, 4, []Entry{
		{0, 0, 1}, {0, 1, 5},
		{1, 1, 2}, {1, 2, 6},
		{2, 0, 8}, {2, 2, 3}, {2, 3, 7},
		{3, 1, 9}, {3, 3, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPaperFigure1COO(t *testing.T) {
	c := paperMatrix(t)
	wantRows := []int32{0, 0, 1, 1, 2, 2, 2, 3, 3}
	wantCols := []int32{0, 1, 1, 2, 0, 2, 3, 1, 3}
	wantVals := []float64{1, 5, 2, 6, 8, 3, 7, 9, 4}
	for k := range wantVals {
		if c.Rows[k] != wantRows[k] || c.Cols[k] != wantCols[k] || c.Vals[k] != wantVals[k] {
			t.Fatalf("entry %d = (%d,%d,%v), want (%d,%d,%v)",
				k, c.Rows[k], c.Cols[k], c.Vals[k], wantRows[k], wantCols[k], wantVals[k])
		}
	}
}

func TestPaperFigure1CSR(t *testing.T) {
	m := NewCSR(paperMatrix(t))
	wantPtr := []int32{0, 2, 4, 7, 9}
	for i, w := range wantPtr {
		if m.RowPtr[i] != w {
			t.Fatalf("RowPtr = %v, want %v", m.RowPtr, wantPtr)
		}
	}
}

// TestNewCSRRowPtrOnTallMatrix checks NewCSR's prefix sum on a tall
// matrix with most rows empty against a naive count: RowPtr[i] is the
// number of nonzeros in rows before i.
func TestNewCSRRowPtrOnTallMatrix(t *testing.T) {
	c := randomCOO(rand.New(rand.NewSource(11)), 60000, 1500, 700)
	m := NewCSR(c)
	rows, _ := c.Dims()
	want := make([]int32, rows+1)
	for i := range want {
		for _, r := range c.Rows {
			if int(r) < i {
				want[i]++
			}
		}
	}
	if len(m.RowPtr) != len(want) {
		t.Fatalf("len(RowPtr) = %d, want %d", len(m.RowPtr), len(want))
	}
	for i := range want {
		if m.RowPtr[i] != want[i] {
			t.Fatalf("RowPtr[%d] = %d, naive count %d", i, m.RowPtr[i], want[i])
		}
	}
}

func TestPaperFigure1DIA(t *testing.T) {
	m := NewDIA(paperMatrix(t))
	wantOffsets := []int32{-2, 0, 1}
	if len(m.Offsets) != 3 {
		t.Fatalf("offsets = %v, want %v", m.Offsets, wantOffsets)
	}
	for i, w := range wantOffsets {
		if m.Offsets[i] != w {
			t.Fatalf("offsets = %v, want %v", m.Offsets, wantOffsets)
		}
	}
	// Lane for offset -2: rows 2,3 hold 8,9 (paper shows [* * 8 9]).
	if m.Data[0*4+2] != 8 || m.Data[0*4+3] != 9 {
		t.Fatalf("lane -2 = %v", m.Data[0:4])
	}
	// Principal diagonal: 1 2 3 4.
	if m.Data[1*4+0] != 1 || m.Data[1*4+3] != 4 {
		t.Fatalf("lane 0 = %v", m.Data[4:8])
	}
	// Offset +1: 5 6 7 with padding at the end.
	if m.Data[2*4+0] != 5 || m.Data[2*4+2] != 7 || m.Data[2*4+3] != 0 {
		t.Fatalf("lane +1 = %v", m.Data[8:12])
	}
}

func TestNewCOOValidation(t *testing.T) {
	if _, err := NewCOO(0, 4, nil); err == nil {
		t.Fatal("accepted zero rows")
	}
	if _, err := NewCOO(4, 4, []Entry{{4, 0, 1}}); err == nil {
		t.Fatal("accepted out-of-range row")
	}
	if _, err := NewCOO(4, 4, []Entry{{0, -1, 1}}); err == nil {
		t.Fatal("accepted negative col")
	}
}

func TestNewCOODeduplicatesAndDropsZeros(t *testing.T) {
	c := MustCOO(2, 2, []Entry{
		{0, 0, 1}, {0, 0, 2}, // duplicates summed -> 3
		{1, 1, 5}, {1, 1, -5}, // cancel -> dropped
		{0, 1, 0}, // explicit zero dropped
	})
	if c.NNZ() != 1 || c.Vals[0] != 3 {
		t.Fatalf("canonicalisation failed: %+v", c)
	}
}

// TestNewCOOOwnedMatchesNewCOO: the owned builder is NewCOO without the
// copy — same matrix and same errors on sorted, shuffled and duplicated
// input — and NewCOO itself still leaves the caller's slice alone.
func TestNewCOOOwnedMatchesNewCOO(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		es := make([]Entry, rng.Intn(40))
		for i := range es {
			es[i] = Entry{Row: rng.Intn(rows), Col: rng.Intn(cols), Val: float64(rng.Intn(5) - 2)}
		}
		switch trial % 4 {
		case 1: // canonical order, maybe with duplicates
			sortEntries(es)
		case 2: // strictly row-major: the path that skips the sort
			es = MustCOO(rows, cols, es).Entries()
		case 3: // one index out of range
			es = append(es, Entry{Row: rows, Col: 0, Val: 1})
		}
		before := append([]Entry(nil), es...)
		want, wantErr := NewCOO(rows, cols, es)
		for i := range es {
			if es[i] != before[i] {
				t.Fatalf("trial %d: NewCOO changed the caller's slice at %d", trial, i)
			}
		}
		got, gotErr := NewCOOOwned(rows, cols, es)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: NewCOO err %v, NewCOOOwned err %v", trial, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: NewCOOOwned %+v, NewCOO %+v", trial, got, want)
		}
		dense := make([]float64, rows*cols)
		for _, e := range before {
			dense[e.Row*cols+e.Col] += e.Val // small integers: exact in any order
		}
		for i, v := range got.Dense() {
			if v != dense[i] {
				t.Fatalf("trial %d: dense[%d] = %v, want %v", trial, i, v, dense[i])
			}
		}
		for k := 1; k < got.NNZ(); k++ {
			if got.Rows[k-1] > got.Rows[k] || (got.Rows[k-1] == got.Rows[k] && got.Cols[k-1] >= got.Cols[k]) {
				t.Fatalf("trial %d: not canonical at %d", trial, k)
			}
		}
	}
	if _, err := NewCOOOwned(0, 4, nil); err == nil {
		t.Fatal("accepted zero rows")
	}
}

func randomCOO(rng *rand.Rand, rows, cols, nnz int) *COO {
	es := make([]Entry, 0, nnz)
	for k := 0; k < nnz; k++ {
		es = append(es, Entry{
			Row: rng.Intn(rows), Col: rng.Intn(cols),
			Val: rng.NormFloat64() + 0.1, // avoid exact zeros
		})
	}
	return MustCOO(rows, cols, es)
}

// Property: converting COO -> F -> COO is the identity for every format.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		nnz := rng.Intn(rows*cols/2 + 1)
		c := randomCOO(rng, rows, cols, nnz)
		for _, format := range AllFormats() {
			m := MustConvert(c, format)
			back := m.ToCOO()
			if !back.Equal(c) {
				t.Logf("round trip through %v failed (seed %d, %dx%d nnz %d)",
					format, seed, rows, cols, c.NNZ())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCSR5TileStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomCOO(rng, 50, 50, 400)
	m := NewCSR5(c, 4, 8)
	if m.NumTiles != c.NNZ()/(4*8) {
		t.Fatalf("NumTiles = %d, want %d", m.NumTiles, c.NNZ()/(4*8))
	}
	if len(m.TailVals) != c.NNZ()-m.NumTiles*32 {
		t.Fatalf("tail size = %d", len(m.TailVals))
	}
	// Every lane's first element must be flagged consistently with its
	// LaneRow.
	for t2 := 0; t2 < m.NumTiles; t2++ {
		for l := 0; l < 4; l++ {
			lane := t2*4 + l
			if m.BitFlag[lane]&1 != 0 {
				seg := m.SegPtr[lane]
				if m.SegRows[seg] != m.LaneRow[lane] {
					t.Fatalf("lane %d: first seg row %d != lane row %d",
						lane, m.SegRows[seg], m.LaneRow[lane])
				}
			}
		}
	}
}

func TestCSR5SigmaClamped(t *testing.T) {
	c := paperMatrix(t)
	m := NewCSR5(c, 2, 100) // sigma must clamp to 64
	if m.Sigma != 64 {
		t.Fatalf("sigma = %d, want 64", m.Sigma)
	}
}

func TestELLWidthAndFill(t *testing.T) {
	c := paperMatrix(t)
	m := NewELL(c)
	if m.Width != 3 {
		t.Fatalf("width = %d, want 3", m.Width)
	}
	if got, want := len(m.Vals), 12; got != want || m.nnz != 9 {
		t.Fatalf("%d slots for %d nonzeros, want %d for 9", got, m.nnz, want)
	}
}

func TestHYBSplit(t *testing.T) {
	// One dense row on top of a uniform matrix: HYB with k=1 should put
	// exactly one entry per row into ELL and the rest into the tail.
	es := []Entry{}
	for j := 0; j < 8; j++ {
		es = append(es, Entry{Row: 0, Col: j, Val: 1})
	}
	for i := 1; i < 8; i++ {
		es = append(es, Entry{Row: i, Col: i, Val: 2})
	}
	c := MustCOO(8, 8, es)
	h := NewHYB(c, 1)
	if h.ELL.NNZ() != 8 {
		t.Fatalf("ELL part nnz = %d, want 8", h.ELL.NNZ())
	}
	if h.Tail.NNZ() != 7 {
		t.Fatalf("tail nnz = %d, want 7", h.Tail.NNZ())
	}
	if h.ELL.Width != 1 {
		t.Fatalf("ELL width = %d, want 1", h.ELL.Width)
	}
}

func TestHYBAutoK(t *testing.T) {
	c := paperMatrix(t)
	h := NewHYB(c, 0)
	if h.K < 1 {
		t.Fatalf("auto K = %d", h.K)
	}
	if h.NNZ() != c.NNZ() {
		t.Fatalf("HYB lost entries: %d vs %d", h.NNZ(), c.NNZ())
	}
}

func TestBSRBlocks(t *testing.T) {
	// 8x8 matrix with one dense 4x4 block at (0,0) and one entry at (7,7).
	es := []Entry{}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			es = append(es, Entry{Row: i, Col: j, Val: float64(i*4 + j + 1)})
		}
	}
	es = append(es, Entry{Row: 7, Col: 7, Val: 9})
	c := MustCOO(8, 8, es)
	m := NewBSR(c, 4)
	if m.NumBlocks() != 2 {
		t.Fatalf("blocks = %d, want 2", m.NumBlocks())
	}
	if got, want := len(m.Blocks), 32; got != want || m.nnz != 17 {
		t.Fatalf("%d block slots for %d nonzeros, want %d for 17", got, m.nnz, want)
	}
}

func TestBSRNonMultipleDims(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := randomCOO(rng, 10, 7, 30)
	m := NewBSR(c, 4)
	if m.BlockRows != 3 || m.BlockCols != 2 {
		t.Fatalf("block grid %dx%d, want 3x2", m.BlockRows, m.BlockCols)
	}
	if !m.ToCOO().Equal(c) {
		t.Fatal("BSR round trip failed with non-multiple dims")
	}
}

func TestDIAFillRatio(t *testing.T) {
	// Pure tridiagonal: three lanes, fill close to 1.
	es := []Entry{}
	n := 64
	for i := 0; i < n; i++ {
		es = append(es, Entry{Row: i, Col: i, Val: 2})
		if i > 0 {
			es = append(es, Entry{Row: i, Col: i - 1, Val: -1})
		}
		if i < n-1 {
			es = append(es, Entry{Row: i, Col: i + 1, Val: -1})
		}
	}
	m := NewDIA(MustCOO(n, n, es))
	if m.NumDiags() != 3 {
		t.Fatalf("diags = %d", m.NumDiags())
	}
	if fill := float64(m.nnz) / float64(len(m.Data)); fill < 0.98 {
		t.Fatalf("tridiagonal fill = %v", fill)
	}
}

func TestFormatStringAndParse(t *testing.T) {
	for _, f := range AllFormats() {
		got, err := ParseFormat(f.String())
		if err != nil || got != f {
			t.Fatalf("ParseFormat(%q) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFormat("NOPE"); err == nil {
		t.Fatal("accepted unknown format")
	}
	if Format(99).String() == "" {
		t.Fatal("unknown format String empty")
	}
}

// TestFormatNumbersFrozen pins the format numbers that selector headers,
// tree blobs and corpus stores hold on disk, and that AllFormats is the
// two selection sets and nothing else.
func TestFormatNumbersFrozen(t *testing.T) {
	want := map[Format]int{
		FormatCOO: 0, FormatCSR: 1, FormatDIA: 3, FormatELL: 4,
		FormatHYB: 5, FormatBSR: 6, FormatCSR5: 7,
	}
	for f, n := range want {
		if int(f) != n {
			t.Errorf("%v = %d, stored artifacts say %d", f, int(f), n)
		}
	}
	union := slices.Concat(CPUFormats(), GPUFormats())
	slices.Sort(union)
	union = slices.Compact(union)
	if got := AllFormats(); !slices.Equal(got, union) {
		t.Fatalf("AllFormats() = %v, want the sorted union of the selection sets %v", got, union)
	}
	if len(want) != len(union) {
		t.Fatalf("%d formats pinned, %d exist", len(want), len(union))
	}
	for _, name := range []string{"CSC", "SELL"} {
		if f, err := ParseFormat(name); err == nil {
			t.Errorf("ParseFormat(%q) = %v, want an error", name, f)
		}
	}
	if err := CheckFormats(AllFormats()); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-1, 2, 8, 99} {
		if err := CheckFormats([]Format{FormatCSR, Format(n)}); err == nil {
			t.Errorf("CheckFormats accepted format number %d", n)
		}
	}
}

func TestFormatSets(t *testing.T) {
	if len(CPUFormats()) != 4 {
		t.Fatalf("CPU formats: %v", CPUFormats())
	}
	if len(GPUFormats()) != 6 {
		t.Fatalf("GPU formats: %v", GPUFormats())
	}
}

func TestBytesAccounting(t *testing.T) {
	c := paperMatrix(t)
	if got, want := c.Bytes(), int64(9*16); got != want {
		t.Fatalf("COO bytes = %d, want %d", got, want)
	}
	csr := NewCSR(c)
	if got, want := csr.Bytes(), int64(5*4+9*12); got != want {
		t.Fatalf("CSR bytes = %d, want %d", got, want)
	}
	ell := NewELL(c)
	if got, want := ell.Bytes(), int64(4*3*12); got != want {
		t.Fatalf("ELL bytes = %d, want %d", got, want)
	}
}

func TestDenseAndEntries(t *testing.T) {
	c := paperMatrix(t)
	d := c.Dense()
	if d[0] != 1 || d[2*4+3] != 7 {
		t.Fatalf("Dense wrong: %v", d)
	}
	es := c.Entries()
	if len(es) != 9 || es[0] != (Entry{0, 0, 1}) {
		t.Fatalf("Entries wrong: %v", es)
	}
}

func TestCSRRowAccess(t *testing.T) {
	m := NewCSR(paperMatrix(t))
	cols, vals := m.Row(2)
	if len(cols) != 3 || cols[0] != 0 || vals[2] != 7 {
		t.Fatalf("Row(2) = %v %v", cols, vals)
	}
	if cols, _ := m.Row(0); len(cols) != 2 {
		t.Fatalf("row 0 has %d nonzeros, want 2", len(cols))
	}
}
