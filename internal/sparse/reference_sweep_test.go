package sparse_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sparse"
	"repro/internal/synthgen"
)

type namedMatrix struct {
	name string
	m    *sparse.COO
}

// synthSweep is the generator mixture at the three sizes the repo
// works at: the serving pool (384), the shipped training set (2048) and
// toy matrices where every edge effect is a large share of the whole.
func synthSweep(perSize int) []namedMatrix {
	var out []namedMatrix
	for _, maxN := range []int{64, 384, 2048} {
		for i, sp := range synthgen.SampleSpecs(perSize, int64(maxN), maxN) {
			out = append(out, namedMatrix{fmt.Sprintf("synthgen/maxn%d/%d", maxN, i), synthgen.Build(sp)})
		}
	}
	return out
}

// edgeMatrices are the shapes a row-run sweep over arrays sized by the
// dimensions could get wrong where a map could not.
func edgeMatrices() []namedMatrix {
	e := func(r, c int) sparse.Entry { return sparse.Entry{Row: r, Col: c, Val: 1 + float64(r+c)} }
	pattern := func(rows, cols int, pos ...[2]int) *sparse.COO {
		es := make([]sparse.Entry, len(pos))
		for i, p := range pos {
			es[i] = e(p[0], p[1])
		}
		return sparse.MustCOO(rows, cols, es)
	}
	out := []namedMatrix{
		{"empty", sparse.MustCOO(5, 7, nil)},
		{"1x1", pattern(1, 1, [2]int{0, 0})},
		{"1xn", pattern(1, 37, [2]int{0, 0}, [2]int{0, 5}, [2]int{0, 36})},
		{"nx1", pattern(37, 1, [2]int{0, 0}, [2]int{5, 0}, [2]int{36, 0})},
		{"far corner", pattern(13, 11, [2]int{12, 10})},
		{"top right corner", pattern(13, 11, [2]int{0, 10})},
		{"bottom left corner", pattern(13, 11, [2]int{12, 0})},
		{"leading and trailing empty rows", pattern(9, 9, [2]int{3, 1}, [2]int{3, 8}, [2]int{4, 4})},
		{"interior empty rows", pattern(10, 6, [2]int{0, 0}, [2]int{0, 5}, [2]int{4, 2}, [2]int{9, 5})},
		// Rows 4..7 are one block row; their block columns overlap in
		// every way: repeated, a subset, new to the left, new to the
		// right. Row 8 revisits block column 1 from the next block row.
		{"overlapping block columns", pattern(11, 18,
			[2]int{4, 4}, [2]int{4, 5}, [2]int{4, 13},
			[2]int{5, 6}, [2]int{5, 12},
			[2]int{6, 0}, [2]int{6, 7}, [2]int{6, 17},
			[2]int{7, 3}, [2]int{7, 4}, [2]int{7, 16},
			[2]int{8, 5}, [2]int{8, 6})},
	}

	rng := rand.New(rand.NewSource(21))
	scatter := func(rows, cols, nnz int) *sparse.COO {
		es := make([]sparse.Entry, nnz)
		for i := range es {
			es[i] = e(rng.Intn(rows), rng.Intn(cols))
		}
		return sparse.MustCOO(rows, cols, es)
	}
	out = append(out,
		namedMatrix{"rows >> cols", scatter(1500, 3, 400)},
		namedMatrix{"cols >> rows", scatter(3, 1500, 400)},
		namedMatrix{"dims not a multiple of 4", scatter(13, 11, 60)},
		// Hundreds of diagonals, met in an order that has nothing to do
		// with their offsets.
		namedMatrix{"scattered diagonals", scatter(600, 600, 900)},
	)

	// More than four lines contending for one set of each gather cache:
	// lines 128 apart share a set in both (32 and 128 sets), lines 32
	// apart only in the small one. Each row touches its own subset, so
	// hits, evictions and re-fetches after eviction all occur.
	var es []sparse.Entry
	for r := 0; r < 96; r++ {
		for j := 0; j < 7; j++ {
			if rng.Intn(3) > 0 {
				es = append(es, e(r, 8*128*j+rng.Intn(8)))
			}
			if rng.Intn(3) == 0 {
				es = append(es, e(r, 8*32*j+8*5))
			}
		}
	}
	out = append(out, namedMatrix{"lru set contention", sparse.MustCOO(96, 8*128*7, es)})

	// Small random shapes, dense enough that rows, diagonals and blocks
	// collide.
	for i := 0; i < 300; i++ {
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		out = append(out, namedMatrix{fmt.Sprintf("small/%d", i), scatter(rows, cols, rng.Intn(1+rows*cols/2))})
	}
	return out
}

func TestComputeStatsMatchesReference(t *testing.T) {
	for _, nm := range append(synthSweep(200), edgeMatrices()...) {
		if got, want := sparse.ComputeStats(nm.m), sparse.RefComputeStats(nm.m); got != want {
			t.Errorf("%s: ComputeStats\n got %+v\nwant %+v", nm.name, got, want)
		}
		if got, want := nm.m.StatsLite(), sparse.RefComputeStatsLite(nm.m); got != want {
			t.Errorf("%s: StatsLite\n got %+v\nwant %+v", nm.name, got, want)
		}
	}
}

func TestNewDIAMatchesReference(t *testing.T) {
	converted := 0
	for _, nm := range append(synthSweep(80), edgeMatrices()...) {
		// A scattered matrix opens a lane per nonzero; past 8 MB of
		// lanes there is nothing more to learn from it.
		if st := nm.m.StatsLite(); st.NumDiags*st.Rows > 1<<20 {
			continue
		}
		converted++
		if got, want := sparse.NewDIA(nm.m), sparse.RefNewDIA(nm.m); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: NewDIA differs from the reference (%d offsets, want %d)", nm.name, len(got.Offsets), len(want.Offsets))
		}
	}
	if converted < 200 {
		t.Fatalf("only %d matrices converted", converted)
	}
}

func TestNewBSRMatchesReference(t *testing.T) {
	for _, nm := range append(synthSweep(80), edgeMatrices()...) {
		for _, b := range []int{0, 1, 3, 8} {
			if got, want := sparse.NewBSR(nm.m, b), sparse.RefNewBSR(nm.m, b); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: NewBSR(b=%d) differs from the reference (%d blocks, want %d)", nm.name, b, got.NumBlocks(), want.NumBlocks())
			}
		}
	}
}
