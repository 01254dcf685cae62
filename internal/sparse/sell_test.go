package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSELLDefaultsAndSigmaRounding(t *testing.T) {
	c := MustCOO(10, 10, []Entry{{Row: 0, Col: 0, Val: 1}})
	s := NewSELL(c, 0, 0)
	if s.C != DefaultSellC || s.Sigma != DefaultSellSigma {
		t.Fatalf("defaults: C=%d sigma=%d", s.C, s.Sigma)
	}
	s = NewSELL(c, 4, 10) // sigma rounds up to multiple of C
	if s.Sigma != 12 {
		t.Fatalf("sigma = %d, want 12", s.Sigma)
	}
}

func TestSELLChunkWidths(t *testing.T) {
	// 8 rows, C=4: two chunks. Rows 0..3 have 1 nonzero, rows 4..7 have
	// 3 — with sigma=8 the sort groups long rows into one chunk, so the
	// chunk widths are 3 and 1 and padding is minimal.
	var es []Entry
	for i := 0; i < 4; i++ {
		es = append(es, Entry{Row: i, Col: i, Val: 1})
	}
	for i := 4; i < 8; i++ {
		for j := 0; j < 3; j++ {
			es = append(es, Entry{Row: i, Col: j, Val: 1})
		}
	}
	c := MustCOO(8, 8, es)
	s := NewSELL(c, 4, 8)
	if s.NumChunks() != 2 {
		t.Fatalf("chunks = %d", s.NumChunks())
	}
	if s.ChunkLen[0] != 3 || s.ChunkLen[1] != 1 {
		t.Fatalf("chunk widths = %v, want [3 1]", s.ChunkLen)
	}
	if len(s.Vals) != s.nnz {
		t.Fatalf("%d slots for %d nonzeros, want no padding after sorting", len(s.Vals), s.nnz)
	}
	// Without sorting (sigma = C = 4), each window keeps its mixed rows:
	// both chunks are unsorted internally but widths stay per-chunk.
	s2 := NewSELL(c, 4, 4)
	if s2.ChunkLen[0] != 1 || s2.ChunkLen[1] != 3 {
		t.Fatalf("unsorted widths = %v", s2.ChunkLen)
	}
}

// SELL reduces padding versus ELL on skewed matrices — its raison
// d'être.
func TestSELLPaddingBelowELL(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var es []Entry
	n := 256
	for i := 0; i < n; i++ {
		k := 1 + rng.Intn(4)
		if i%64 == 0 {
			k = 40 // heavy outlier rows
		}
		for j := 0; j < k; j++ {
			es = append(es, Entry{Row: i, Col: rng.Intn(n), Val: 1})
		}
	}
	c := MustCOO(n, n, es)
	sell := NewSELL(c, 8, 64)
	ell := NewELL(c)
	if sell.Bytes() >= ell.Bytes() {
		t.Fatalf("SELL bytes %d not below ELL %d on skewed matrix", sell.Bytes(), ell.Bytes())
	}
	if len(sell.Vals) >= len(ell.Vals) {
		t.Fatalf("SELL stores %d slots, not fewer than ELL's %d", len(sell.Vals), len(ell.Vals))
	}
}

// Property: SELL round-trips and multiplies correctly for arbitrary
// geometry (covered also by the AllFormats property tests, but this
// exercises non-default C/sigma).
func TestSELLRoundTripAndMulProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(70), 1+rng.Intn(70)
		c := randomCOO(rng, rows, cols, rng.Intn(rows*cols/2+1))
		cc := 1 + rng.Intn(8)
		sigma := cc * (1 + rng.Intn(6))
		s := NewSELL(c, cc, sigma)
		if !s.ToCOO().Equal(c) {
			return false
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, rows)
		NewCSR(c).MulVec(want, x)
		got := make([]float64, rows)
		s.MulVec(got, x)
		for i := range want {
			if diff := got[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSELLPermIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := randomCOO(rng, 100, 100, 700)
	s := NewSELL(c, 8, 32)
	seen := make([]bool, 100)
	for _, p := range s.Perm {
		if seen[p] {
			t.Fatal("Perm has duplicates")
		}
		seen[p] = true
	}
}
