package sparse

import (
	"math/rand"
	"testing"
)

// randomPattern builds a random sparse pattern with all-ones values.
func randomPattern(rng *rand.Rand, rows, cols, nnz int) []Entry {
	seen := map[[2]int]bool{}
	var es []Entry
	for len(es) < nnz {
		r, c := rng.Intn(rows), rng.Intn(cols)
		if seen[[2]int{r, c}] {
			continue
		}
		seen[[2]int{r, c}] = true
		es = append(es, Entry{Row: r, Col: c, Val: 1})
	}
	return es
}

func TestFingerprintPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	es := randomPattern(rng, 50, 40, 200)
	want := Fingerprint(MustCOO(50, 40, es))
	for trial := 0; trial < 10; trial++ {
		rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		if got := Fingerprint(MustCOO(50, 40, es)); got != want {
			t.Fatalf("trial %d: shuffled entries fingerprint %x, want %x", trial, got, want)
		}
	}
}

// TestFingerprintOrderInsensitiveRaw verifies invariance holds even for
// a COO whose triplet arrays are not in canonical (sorted) order — the
// commutative reduction, not canonicalisation, provides the guarantee.
func TestFingerprintOrderInsensitiveRaw(t *testing.T) {
	a := &COO{Pattern: Pattern{rows: 4, cols: 4,
		Rows: []int32{0, 1, 3}, Cols: []int32{2, 0, 3}}, Vals: []float64{1, 2, 3}}
	b := &COO{Pattern: Pattern{rows: 4, cols: 4,
		Rows: []int32{3, 0, 1}, Cols: []int32{3, 2, 0}}, Vals: []float64{3, 1, 2}}
	if Fingerprint(a) != Fingerprint(b) {
		t.Fatalf("raw entry order changed the fingerprint: %x vs %x", Fingerprint(a), Fingerprint(b))
	}
}

func TestFingerprintIgnoresValues(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	es := randomPattern(rng, 30, 30, 90)
	want := Fingerprint(MustCOO(30, 30, es))
	for i := range es {
		es[i].Val = rng.NormFloat64() + 10 // keep nonzero
	}
	if got := Fingerprint(MustCOO(30, 30, es)); got != want {
		t.Fatalf("value change altered pattern fingerprint: %x vs %x", got, want)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := MustCOO(10, 10, []Entry{{0, 0, 1}, {3, 4, 1}, {9, 9, 1}})
	cases := map[string]*COO{
		"moved entry":    MustCOO(10, 10, []Entry{{0, 0, 1}, {3, 5, 1}, {9, 9, 1}}),
		"extra entry":    MustCOO(10, 10, []Entry{{0, 0, 1}, {3, 4, 1}, {9, 9, 1}, {5, 5, 1}}),
		"dropped entry":  MustCOO(10, 10, []Entry{{0, 0, 1}, {3, 4, 1}}),
		"wider shape":    MustCOO(10, 12, []Entry{{0, 0, 1}, {3, 4, 1}, {9, 9, 1}}),
		"taller shape":   MustCOO(12, 10, []Entry{{0, 0, 1}, {3, 4, 1}, {9, 9, 1}}),
		"transposed":     MustCOO(10, 10, []Entry{{0, 0, 1}, {4, 3, 1}, {9, 9, 1}}),
		"swapped coords": MustCOO(10, 10, []Entry{{0, 4, 1}, {3, 0, 1}, {9, 9, 1}}),
	}
	want := Fingerprint(base)
	for name, m := range cases {
		if Fingerprint(m) == want {
			t.Errorf("%s: fingerprint collided with base", name)
		}
	}
}

// TestFingerprintCollisions hashes a few thousand structurally distinct
// patterns and requires all fingerprints to be pairwise distinct — a
// smoke test that the mixing actually spreads.
func TestFingerprintCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seen := map[uint64]string{}
	check := func(name string, m *COO) {
		fp := Fingerprint(m)
		if prev, ok := seen[fp]; ok {
			t.Fatalf("collision between %s and %s (%x)", name, prev, fp)
		}
		seen[fp] = name
	}
	// Dense family of near-identical small patterns: every single-cell
	// pattern in a 40x40 grid.
	for r := 0; r < 40; r++ {
		for c := 0; c < 40; c++ {
			check("cell", &COO{Pattern: Pattern{rows: 40, cols: 40,
				Rows: []int32{int32(r)}, Cols: []int32{int32(c)}}, Vals: []float64{1}})
		}
	}
	// Random patterns across varied shapes and densities.
	for i := 0; i < 2000; i++ {
		rows, cols := 5+rng.Intn(60), 5+rng.Intn(60)
		nnz := 1 + rng.Intn(rows*cols/2)
		check("random", MustCOO(rows, cols, randomPattern(rng, rows, cols, nnz)))
	}
	// Same pattern at growing shapes (shape must matter).
	es := randomPattern(rng, 5, 5, 10)
	for n := 5; n < 100; n++ {
		check("grown", MustCOO(n, n, es))
	}
}

func TestFingerprintNilAndEmpty(t *testing.T) {
	if Fingerprint(nil) != 0 {
		t.Fatal("nil matrix should fingerprint to 0")
	}
	a := &COO{Pattern: Pattern{rows: 3, cols: 3}}
	b := &COO{Pattern: Pattern{rows: 3, cols: 4}}
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatal("empty matrices of different shape should differ")
	}
}

func BenchmarkFingerprint(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	m := MustCOO(1000, 1000, randomPattern(rng, 1000, 1000, 20000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Fingerprint(m)
	}
}
