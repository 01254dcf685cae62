package synthgen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/sparse"
)

func TestBandedStructure(t *testing.T) {
	c := Banded(100, 2, 1.0, 1)
	st := sparse.ComputeStats(c)
	if st.Bandwidth > 2 {
		t.Fatalf("bandwidth = %d, want <= 2", st.Bandwidth)
	}
	if st.NumDiags != 5 {
		t.Fatalf("diags = %d, want 5", st.NumDiags)
	}
	if st.DIAFill < 0.95 {
		t.Fatalf("DIAFill = %v", st.DIAFill)
	}
}

func TestMultiDiagCount(t *testing.T) {
	c := MultiDiag(200, 7, 1.0, 2)
	st := sparse.ComputeStats(c)
	if st.NumDiags != 7 {
		t.Fatalf("diags = %d, want 7", st.NumDiags)
	}
	if st.MainDiagFill != 1 {
		t.Fatalf("principal diagonal fill = %v, want 1", st.MainDiagFill)
	}
}

func TestUniformRowsExact(t *testing.T) {
	c := Uniform(150, 6, 0, 3)
	for i, n := range c.RowCounts() {
		if n != 6 {
			t.Fatalf("row %d has %d nonzeros, want 6", i, n)
		}
	}
}

func TestUniformJitterBounded(t *testing.T) {
	c := Uniform(150, 8, 3, 4)
	for i, n := range c.RowCounts() {
		if n < 5 || n > 11 {
			t.Fatalf("row %d has %d nonzeros outside [5,11]", i, n)
		}
	}
}

func TestPowerLawSkew(t *testing.T) {
	c := PowerLaw(500, 8, 1.5, 5)
	st := sparse.ComputeStats(c)
	if st.RowNNZCV < 1 {
		t.Fatalf("powerlaw CV = %v, want skewed (>1)", st.RowNNZCV)
	}
	if st.MinRowNNZ < 1 {
		t.Fatal("powerlaw produced empty rows")
	}
}

func TestBlockedAlignment(t *testing.T) {
	c := Blocked(64, 10, 4, 1.0, 6)
	st := sparse.ComputeStats(c)
	if st.BSRFill < 0.99 {
		t.Fatalf("BSRFill = %v, want ~1 for full blocks", st.BSRFill)
	}
}

func TestHypersparseShape(t *testing.T) {
	c := Hypersparse(50000, 500, 800, 7)
	rows, cols := c.Dims()
	if rows != 50000 || cols != 500 {
		t.Fatalf("dims %dx%d", rows, cols)
	}
	st := sparse.ComputeStats(c)
	if st.EmptyRows < 49000 {
		t.Fatalf("empty rows = %d, want almost all", st.EmptyRows)
	}
}

func TestKroneckerInBounds(t *testing.T) {
	c := Kronecker(300, 3000, 0.57, 0.19, 0.19, 8)
	rows, cols := c.Dims()
	if rows != 300 || cols != 300 {
		t.Fatalf("dims %dx%d", rows, cols)
	}
	if c.NNZ() == 0 {
		t.Fatal("empty kronecker")
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := Banded(100, 3, 0.7, 42)
	b := Banded(100, 3, 0.7, 42)
	if !a.Equal(b) {
		t.Fatal("Banded not deterministic")
	}
	if Banded(100, 3, 0.7, 43).Equal(a) {
		t.Fatal("seed has no effect")
	}
}

// --- derivations ---

func TestCropWindow(t *testing.T) {
	c := Banded(100, 1, 1.0, 9)
	sub := Crop(c, 10, 10, 20, 30)
	rows, cols := sub.Dims()
	if rows != 20 || cols != 30 {
		t.Fatalf("crop dims %dx%d", rows, cols)
	}
	// Band entries survive relative to the window.
	d := sub.Dense()
	if d[0] == 0 { // original (10,10) is on the diagonal
		t.Fatal("diagonal entry lost in crop")
	}
}

func TestCropClampsAndNonEmpty(t *testing.T) {
	c := Banded(50, 1, 1.0, 10)
	sub := Crop(c, 45, 45, 100, 100)
	rows, cols := sub.Dims()
	if rows != 5 || cols != 5 {
		t.Fatalf("clamped dims %dx%d", rows, cols)
	}
	empty := Crop(sparse.MustCOO(10, 10, []sparse.Entry{{Row: 9, Col: 9, Val: 1}}), 0, 0, 3, 3)
	if empty.NNZ() == 0 {
		t.Fatal("crop must keep at least one nonzero")
	}
}

func TestPermutePreservesRowDistribution(t *testing.T) {
	c := PowerLaw(200, 6, 1.2, 11)
	p := Permute(c, 99)
	if p.NNZ() != c.NNZ() {
		t.Fatalf("permute changed nnz %d -> %d", c.NNZ(), p.NNZ())
	}
	// Row-length multiset preserved.
	a, b := c.RowCounts(), p.RowCounts()
	ha := map[int]int{}
	hb := map[int]int{}
	for i := range a {
		ha[a[i]]++
		hb[b[i]]++
	}
	for k, v := range ha {
		if hb[k] != v {
			t.Fatal("row-length distribution changed")
		}
	}
	// But diagonal structure destroyed for banded input.
	band := Banded(200, 1, 1.0, 12)
	stBefore := sparse.ComputeStats(band)
	stAfter := sparse.ComputeStats(Permute(band, 5))
	if stAfter.NumDiags <= stBefore.NumDiags {
		t.Fatal("permutation should scatter diagonals")
	}
}

func TestSparsifyKeepsSubset(t *testing.T) {
	c := Uniform(100, 10, 0, 15)
	s := Sparsify(c, 0.5, 16)
	if s.NNZ() >= c.NNZ() || s.NNZ() == 0 {
		t.Fatalf("sparsify nnz %d of %d", s.NNZ(), c.NNZ())
	}
	if Sparsify(c, 0.0, 17).NNZ() == 0 {
		t.Fatal("sparsify must keep at least one entry")
	}
}

// --- mixture ---

func TestBuildDeterministic(t *testing.T) {
	specs := SampleSpecs(30, 7, 512)
	for _, s := range specs {
		if !Build(s).Equal(Build(s)) {
			t.Fatalf("Build(%+v) not deterministic", s)
		}
	}
}

func TestSampleSpecsCoverFamilies(t *testing.T) {
	specs := SampleSpecs(400, 1, 512)
	seen := map[Family]bool{}
	derived := 0
	for _, s := range specs {
		seen[s.Family] = true
		if s.Derive != DeriveNone {
			derived++
		}
	}
	for f := Family(0); f < numFamilies; f++ {
		if !seen[f] {
			t.Fatalf("family %v never sampled in 400 draws", f)
		}
	}
	if derived < 50 || derived > 250 {
		t.Fatalf("derived count %d outside expected band", derived)
	}
}

// Property: every sampled spec builds a valid non-empty matrix within
// the size bound.
func TestSampledSpecsBuildProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := SampleSpec(rng, 256)
		c := Build(s)
		rows, cols := c.Dims()
		return c.NNZ() > 0 && rows > 0 && cols > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The mixture labelled on the CPU platform must produce a class
// distribution in the same shape as Table 2: CSR dominant, all four
// formats represented.
func TestMixtureLabelDistributionCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution check is slow")
	}
	specs := SampleSpecs(300, 11, 512)
	lab := machine.NewLabeler(machine.XeonLike(), 1)
	counts := map[sparse.Format]int{}
	for i, s := range specs {
		st := sparse.ComputeStats(Build(s))
		f, _ := lab.Label(st, uint64(i))
		counts[f]++
	}
	t.Logf("CPU label distribution: %v", counts)
	csrFrac := float64(counts[sparse.FormatCSR]) / 300
	if csrFrac < 0.35 || csrFrac > 0.92 {
		t.Fatalf("CSR fraction %.2f outside plausible band; counts %v", csrFrac, counts)
	}
	for _, f := range sparse.CPUFormats() {
		if counts[f] == 0 {
			t.Fatalf("format %v never wins; counts %v", f, counts)
		}
	}
}

// On the GPU platform all formats except COO must win somewhere, and COO
// must win nowhere (Table 3).
func TestMixtureLabelDistributionGPU(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution check is slow")
	}
	specs := SampleSpecs(300, 12, 512)
	lab := machine.NewLabeler(machine.TitanLike(), 2)
	counts := map[sparse.Format]int{}
	for i, s := range specs {
		st := sparse.ComputeStats(Build(s))
		f, _ := lab.Label(st, uint64(i))
		counts[f]++
	}
	t.Logf("GPU label distribution: %v", counts)
	// Table 3 reports a hard zero for COO; with measurement noise an
	// occasional boundary flip is tolerated (<1%), matching the paper's
	// "COO never wins" up to noise.
	if counts[sparse.FormatCOO] > 3 {
		t.Fatalf("COO won on GPU more than noise allows: %v", counts)
	}
	for _, f := range []sparse.Format{sparse.FormatCSR, sparse.FormatELL, sparse.FormatBSR, sparse.FormatCSR5, sparse.FormatHYB} {
		if counts[f] == 0 {
			t.Fatalf("format %v never wins on GPU; counts %v", f, counts)
		}
	}
}
