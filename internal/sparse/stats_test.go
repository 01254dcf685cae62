package sparse

import (
	"math"
	"math/rand"
	"testing"
)

func tridiag(n int) *COO {
	var es []Entry
	for i := 0; i < n; i++ {
		es = append(es, Entry{i, i, 2})
		if i > 0 {
			es = append(es, Entry{i, i - 1, -1})
		}
		if i < n-1 {
			es = append(es, Entry{i, i + 1, -1})
		}
	}
	return MustCOO(n, n, es)
}

func TestStatsTridiagonal(t *testing.T) {
	n := 200
	s := ComputeStats(tridiag(n))
	if s.NNZ != 3*n-2 {
		t.Fatalf("nnz = %d", s.NNZ)
	}
	if s.NumDiags != 3 {
		t.Fatalf("numDiags = %d", s.NumDiags)
	}
	if s.DIAFill < 0.99 {
		t.Fatalf("DIAFill = %v", s.DIAFill)
	}
	if s.DiagDominance != 1 {
		t.Fatalf("DiagDominance = %v", s.DiagDominance)
	}
	if s.Bandwidth != 1 {
		t.Fatalf("Bandwidth = %d", s.Bandwidth)
	}
	if s.MaxRowNNZ != 3 || s.MinRowNNZ != 2 {
		t.Fatalf("row nnz range [%d,%d]", s.MinRowNNZ, s.MaxRowNNZ)
	}
	if s.MainDiagFill != 1 {
		t.Fatalf("MainDiagFill = %v", s.MainDiagFill)
	}
	if s.EmptyRows != 0 {
		t.Fatalf("EmptyRows = %d", s.EmptyRows)
	}
}

func TestStatsUniformRowsELLFriendly(t *testing.T) {
	// Every row has exactly 4 scattered nonzeros: CV == 0, ELLFill == 1.
	var es []Entry
	n := 100
	for i := 0; i < n; i++ {
		for k := 0; k < 4; k++ {
			es = append(es, Entry{i, (i*7 + k*13) % n, 1})
		}
	}
	s := ComputeStats(MustCOO(n, n, es))
	if s.RowNNZCV > 1e-12 {
		t.Fatalf("CV = %v, want 0", s.RowNNZCV)
	}
	if math.Abs(s.ELLFill-1) > 1e-12 {
		t.Fatalf("ELLFill = %v, want 1", s.ELLFill)
	}
}

func TestStatsSkewedRows(t *testing.T) {
	// One full row + singleton diagonal: high CV, tiny ELLFill.
	var es []Entry
	n := 100
	for j := 0; j < n; j++ {
		es = append(es, Entry{0, j, 1})
	}
	for i := 1; i < n; i++ {
		es = append(es, Entry{i, i, 1})
	}
	s := ComputeStats(MustCOO(n, n, es))
	if s.RowNNZCV < 2 {
		t.Fatalf("CV = %v, want large", s.RowNNZCV)
	}
	if s.ELLFill > 0.05 {
		t.Fatalf("ELLFill = %v, want tiny", s.ELLFill)
	}
	if s.MaxRowNNZ != n {
		t.Fatalf("MaxRowNNZ = %d", s.MaxRowNNZ)
	}
}

func TestStatsBlockStructure(t *testing.T) {
	// Two dense 4x4 blocks: BSRFill == 1.
	var es []Entry
	for _, base := range []int{0, 12} {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				es = append(es, Entry{base + i, base + j, 1})
			}
		}
	}
	s := ComputeStats(MustCOO(16, 16, es))
	if s.NumBlocks != 2 {
		t.Fatalf("NumBlocks = %d", s.NumBlocks)
	}
	if math.Abs(s.BSRFill-1) > 1e-12 {
		t.Fatalf("BSRFill = %v", s.BSRFill)
	}
}

func TestStatsEmptyMatrix(t *testing.T) {
	s := ComputeStats(MustCOO(5, 5, nil))
	if s.NNZ != 0 || s.EmptyRows != 5 || s.Density != 0 {
		t.Fatalf("empty stats: %+v", s)
	}
}

func TestStatsColSpread(t *testing.T) {
	// Row 0 spans the whole width; row 1 a single column.
	es := []Entry{{0, 0, 1}, {0, 9, 1}, {1, 5, 1}}
	s := ComputeStats(MustCOO(2, 10, es))
	want := (1.0 + 0.1) / 2
	if math.Abs(s.AvgColSpread-want) > 1e-12 {
		t.Fatalf("AvgColSpread = %v, want %v", s.AvgColSpread, want)
	}
}

// TestComputeStatsAllocations: the sweep's scratch is the diagonal
// bitmap and the block-column stamps — two allocations whatever the
// number of nonzeros, diagonals or blocks.
func TestComputeStatsAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, c := range map[string]*COO{
		"tridiagonal": tridiag(500),
		"scattered":   MustCOO(700, 900, randomPattern(rng, 700, 900, 12000)),
	} {
		if allocs := testing.AllocsPerRun(10, func() { ComputeStats(c) }); allocs > 2 {
			t.Errorf("%s: ComputeStats allocates %v objects per call, want at most 2", name, allocs)
		}
	}
}
