package features

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func TestDimMatchesNames(t *testing.T) {
	if Dim != len(Names) {
		t.Fatal("Dim out of sync")
	}
	c := sparse.MustCOO(4, 4, []sparse.Entry{{Row: 0, Col: 0, Val: 1}})
	if got := FromStats(c.Stats()); len(got) != Dim {
		t.Fatalf("vector length %d, want %d", len(got), Dim)
	}
}

func TestKnownValues(t *testing.T) {
	// Identity 8x8: density 1/8, uniform rows, one diagonal.
	var es []sparse.Entry
	for i := 0; i < 8; i++ {
		es = append(es, sparse.Entry{Row: i, Col: i, Val: 1})
	}
	f := FromStats(sparse.MustCOO(8, 8, es).Stats())
	at := func(name string) float64 {
		for i, n := range Names {
			if n == name {
				return f[i]
			}
		}
		t.Fatalf("no feature %q", name)
		return 0
	}
	if math.Abs(at("density")-1.0/8) > 1e-12 {
		t.Fatalf("density %v", at("density"))
	}
	if at("row_nnz_cv") != 0 {
		t.Fatalf("cv %v", at("row_nnz_cv"))
	}
	if at("ell_fill") != 1 || at("dia_fill") != 1 || at("main_diag_fill") != 1 {
		t.Fatal("fill features wrong for identity")
	}
	if at("aspect_ratio") != 1 {
		t.Fatal("aspect ratio")
	}
	if at("hyb_tail_frac") != 0 {
		t.Fatal("hyb tail for uniform matrix")
	}
}

// Property: all features are finite for any non-empty matrix.
func TestFeaturesFiniteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(100), 1+rng.Intn(100)
		var es []sparse.Entry
		n := 1 + rng.Intn(300)
		for k := 0; k < n; k++ {
			es = append(es, sparse.Entry{Row: rng.Intn(rows), Col: rng.Intn(cols), Val: 1})
		}
		vec := FromStats(sparse.MustCOO(rows, cols, es).Stats())
		for _, v := range vec {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDiagonalVsScatterSeparable(t *testing.T) {
	var es []sparse.Entry
	n := 100
	for i := 0; i < n; i++ {
		es = append(es, sparse.Entry{Row: i, Col: i, Val: 1})
	}
	diag := FromStats(sparse.MustCOO(n, n, es).Stats())
	rng := rand.New(rand.NewSource(1))
	var es2 []sparse.Entry
	for k := 0; k < n; k++ {
		es2 = append(es2, sparse.Entry{Row: rng.Intn(n), Col: rng.Intn(n), Val: 1})
	}
	scatter := FromStats(sparse.MustCOO(n, n, es2).Stats())
	idx := -1
	for i, name := range Names {
		if name == "diag_dominance" {
			idx = i
		}
	}
	if diag[idx] <= scatter[idx] {
		t.Fatal("diag_dominance does not separate diagonal from scatter")
	}
}

func TestBaselineSubsetOfFull(t *testing.T) {
	if BaselineDim != len(BaselineNames) {
		t.Fatal("BaselineDim out of sync")
	}
	var es []sparse.Entry
	for i := 0; i < 50; i++ {
		es = append(es, sparse.Entry{Row: i, Col: (i * 7) % 50, Val: 1})
	}
	c := sparse.MustCOO(50, 50, es)
	full := FromStats(c.Stats())
	base := BaselineExtract(&c.Pattern)
	if len(base) != BaselineDim {
		t.Fatalf("baseline length %d", len(base))
	}
	// Every baseline feature must equal its counterpart in the full
	// vector (the baseline is a strict subset).
	idx := map[string]int{}
	for i, n := range Names {
		idx[n] = i
	}
	for i, n := range BaselineNames {
		j, ok := idx[n]
		if !ok {
			t.Fatalf("baseline feature %q not in full set", n)
		}
		if base[i] != full[j] {
			t.Fatalf("feature %q differs: baseline %v full %v", n, base[i], full[j])
		}
	}
	// The oracle-only features must NOT be in the baseline.
	for _, n := range []string{"gather_miss_8k", "gather_miss_32k", "dia_fill", "diag_dominance", "bsr_fill", "hyb_tail_frac"} {
		for _, b := range BaselineNames {
			if b == n {
				t.Fatalf("oracle feature %q leaked into the baseline set", n)
			}
		}
	}
}

func TestLiteStatsSkipGatherSim(t *testing.T) {
	var es []sparse.Entry
	for i := 0; i < 100; i++ {
		es = append(es, sparse.Entry{Row: i, Col: (i * 13) % 100, Val: 1})
	}
	c := sparse.MustCOO(100, 100, es)
	lite := c.StatsLite()
	full := sparse.ComputeStats(c)
	if lite.GatherMiss8K != 0 || lite.GatherMiss32K != 0 {
		t.Fatal("lite stats ran the gather simulation")
	}
	if full.GatherMiss8K == 0 {
		t.Fatal("full stats skipped the gather simulation")
	}
	lite.GatherMiss8K, lite.GatherMiss32K = full.GatherMiss8K, full.GatherMiss32K
	if lite != full {
		t.Fatal("lite stats diverge beyond the gather fields")
	}
}
