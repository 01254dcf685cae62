package machine

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// sourceSeeds is what seededSource is checked on: the edges of the seed
// reduction (0, ±1, ±(2^31−1) and its multiples, the replacement of a
// zero seed, the int64 extremes), the first seeds the ziggurat rejects,
// small seeds, and hashed seeds across the whole int64 range as Times
// draws them.
func sourceSeeds(n int) []int64 {
	const m = 1<<31 - 1
	seeds := []int64{
		0, 1, -1, m, -m, m - 1, -m + 1, m + 1, -m - 1, 2 * m, -2 * m, 3*m + 1, -5*m - 1,
		math.MaxInt64 / m * m, -(math.MaxInt64 / m * m), math.MaxInt64/m*m - 1,
		89482311, -89482311, 89482311 + m, math.MinInt64, math.MinInt64 + 1, math.MaxInt64,
	}
	seeds = append(seeds, rejectedFirstDraw...)
	seeds = append(seeds, rejectedPastFastDraws...)
	for i := int64(2); len(seeds) < n/2; i++ {
		seeds = append(seeds, i)
	}
	for i := uint64(0); len(seeds) < n; i++ {
		seeds = append(seeds, int64(noiseSeed(i)))
	}
	return seeds
}

var (
	// rejectedFirstDraw are seeds whose first draw the ziggurat in
	// NormFloat64 rejects, so the normal takes two or more draws.
	rejectedFirstDraw = []int64{78, 85, 96}
	// rejectedPastFastDraws are seeds whose normal takes more draws than
	// seededSource serves itself, so the hand-over happens inside it.
	rejectedPastFastDraws = []int64{408, 4202}
)

// TestSeededSourceMatchesMathRand: for every seed, the first 8 draws
// (past the fast draws, so the hand-over is crossed) and the bits of two
// NormFloat64s are math/rand's.
func TestSeededSourceMatchesMathRand(t *testing.T) {
	ref := rand.NewSource(0).(rand.Source64)
	refRng := rand.New(ref)
	var src seededSource
	rng := rand.New(&src)
	for _, seed := range sourceSeeds(100_000) {
		ref.Seed(seed)
		src.Seed(seed)
		for k := 1; k <= 8; k++ {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: %#x, math/rand %#x", seed, k, got, want)
			}
		}
		ref.Seed(seed)
		src.Seed(seed)
		for k := 1; k <= 2; k++ {
			if got, want := rng.NormFloat64(), refRng.NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d normal %d: %v, math/rand %v", seed, k, got, want)
			}
		}
	}
}

// countingSource counts the draws taken from the source it wraps.
type countingSource struct {
	rand.Source64
	n int
}

func (c *countingSource) Int63() int64   { c.n++; return c.Source64.Int63() }
func (c *countingSource) Uint64() uint64 { c.n++; return c.Source64.Uint64() }

// TestSeededSourceRejectedSeeds checks that the named seeds do take the
// ziggurat's slow path — so the comparison above covers it — and that
// the normal still comes out bit for bit.
func TestSeededSourceRejectedSeeds(t *testing.T) {
	for _, c := range []struct {
		seeds    []int64
		minDraws int
	}{{rejectedFirstDraw, 2}, {rejectedPastFastDraws, fastDraws + 1}} {
		for _, seed := range c.seeds {
			ref := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
			want := rand.New(ref).NormFloat64()
			if ref.n < c.minDraws {
				t.Errorf("seed %d: the normal took %d draws, want at least %d", seed, ref.n, c.minDraws)
			}
			var src seededSource
			src.Seed(seed)
			if got := rand.New(&src).NormFloat64(); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("seed %d: normal %v, math/rand %v", seed, got, want)
			}
		}
	}
}

func FuzzSeededSource(f *testing.F) {
	for _, seed := range sourceSeeds(0) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		ref := rand.NewSource(seed).(rand.Source64)
		var src seededSource
		src.Seed(seed)
		for k := 1; k <= 8; k++ {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: %#x, math/rand %#x", seed, k, got, want)
			}
		}
		src.Seed(seed)
		got, want := rand.New(&src).NormFloat64(), rand.New(rand.NewSource(seed)).NormFloat64()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seed %d: normal %v, math/rand %v", seed, got, want)
		}
	})
}

// TestLabelerSharedAcrossGoroutines: eight goroutines label through one
// Labeler, as RelabelCtx's workers do, and each gets the serial answer
// bit for bit. Run under -race it also shows the Labeler keeps no
// mutable state.
func TestLabelerSharedAcrossGoroutines(t *testing.T) {
	var sts []sparse.Stats
	for _, sp := range synthgen.SampleSpecs(24, 5, 256) {
		sts = append(sts, sparse.ComputeStats(synthgen.Build(sp)))
	}
	lab := NewLabeler(TitanLike(), 9)
	type answer struct {
		best  sparse.Format
		times map[sparse.Format]float64
	}
	serial := make([]answer, len(sts))
	for i, st := range sts {
		serial[i].best, serial[i].times = lab.Label(st, uint64(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range sts {
				i := (k + 3*g) % len(sts)
				best, times := lab.Label(sts[i], uint64(i))
				if best != serial[i].best {
					t.Errorf("goroutine %d matrix %d: label %v, serial %v", g, i, best, serial[i].best)
				}
				for f, want := range serial[i].times {
					if math.Float64bits(times[f]) != math.Float64bits(want) {
						t.Errorf("goroutine %d matrix %d %v: %v, serial %v", g, i, f, times[f], want)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
