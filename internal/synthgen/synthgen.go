// Package synthgen generates the structured sparse matrices that stand
// in for the paper's dataset (2757 SuiteSparse matrices plus ~6400
// derived variants). Each family produces the spatial nonzero structure
// that makes one storage format competitive — dense diagonals (DIA),
// uniform row lengths (ELL), dense blocks (BSR), skewed row lengths
// (HYB/CSR5), unstructured scatter (CSR), hypersparse tall matrices
// (COO) — with continuous parameters so the decision boundaries between
// formats are non-trivial. The paper's derivation operators (cropping,
// transposing, permutation, combination) are implemented in derive.go.
//
// All generation is deterministic in the seed.
package synthgen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sparse"
)

// Family enumerates the structural generator families.
type Family int

// Generator families.
const (
	FamilyBanded          Family = iota // contiguous band around the diagonal
	FamilyMultiDiag                     // a handful of scattered dense diagonals
	FamilyUniform                       // same nonzero count per row
	FamilyRandom                        // Erdős–Rényi scatter
	FamilyPowerLaw                      // Zipf-distributed row lengths
	FamilyBlocked                       // dense 4×4 (± jitter) blocks
	FamilyHypersparse                   // rows ≫ nnz
	FamilyKronecker                     // self-similar RMAT-style scatter
	FamilyUniformOutliers               // uniform rows + a few heavy rows (HYB's habitat)
	numFamilies
)

// String names the family.
func (f Family) String() string {
	switch f {
	case FamilyBanded:
		return "banded"
	case FamilyMultiDiag:
		return "multidiag"
	case FamilyUniform:
		return "uniform"
	case FamilyRandom:
		return "random"
	case FamilyPowerLaw:
		return "powerlaw"
	case FamilyBlocked:
		return "blocked"
	case FamilyHypersparse:
		return "hypersparse"
	case FamilyKronecker:
		return "kronecker"
	case FamilyUniformOutliers:
		return "uniform+outliers"
	default:
		return fmt.Sprintf("Family(%d)", int(f))
	}
}

// val returns a nonzero value; format selection depends on structure,
// not magnitudes, but realistic spread exercises numeric paths.
func val(rng *rand.Rand) float64 {
	return rng.NormFloat64()*10 + 0.5
}

// sampleDistinct returns k distinct values in [0,n) in O(k) expected
// time (O(n) via a permutation when k is a large fraction of n).
func sampleDistinct(rng *rand.Rand, n, k int) []int {
	if k >= n {
		return rng.Perm(n)
	}
	if k > n/2 {
		return rng.Perm(n)[:k]
	}
	seen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for len(out) < k {
		j := rng.Intn(n)
		if _, ok := seen[j]; !ok {
			seen[j] = struct{}{}
			out = append(out, j)
		}
	}
	return out
}

// Banded generates an n×n matrix with a contiguous band of half-width
// band around the principal diagonal, each in-band entry present with
// probability fill.
func Banded(n, band int, fill float64, seed int64) *sparse.COO {
	rng := rand.New(rand.NewSource(seed))
	var es []sparse.Entry
	for i := 0; i < n; i++ {
		for d := -band; d <= band; d++ {
			j := i + d
			if j < 0 || j >= n {
				continue
			}
			if fill >= 1 || rng.Float64() < fill {
				es = append(es, sparse.Entry{Row: i, Col: j, Val: val(rng)})
			}
		}
	}
	ensureNonEmpty(&es, n, rng)
	return sparse.MustCOO(n, n, es)
}

// MultiDiag generates an n×n matrix with ndiags dense diagonals at
// random offsets (always including the principal diagonal), each with
// the given fill probability — the stencil-like structure DIA is built
// for when ndiags is small and fill is high.
func MultiDiag(n, ndiags int, fill float64, seed int64) *sparse.COO {
	rng := rand.New(rand.NewSource(seed))
	seen := map[int]bool{0: true}
	offsets := []int{0}
	for len(offsets) < ndiags {
		off := rng.Intn(2*n-1) - (n - 1)
		if !seen[off] {
			seen[off] = true
			offsets = append(offsets, off)
		}
	}
	var es []sparse.Entry
	for _, off := range offsets {
		for i := 0; i < n; i++ {
			j := i + off
			if j < 0 || j >= n {
				continue
			}
			if fill >= 1 || rng.Float64() < fill {
				es = append(es, sparse.Entry{Row: i, Col: j, Val: val(rng)})
			}
		}
	}
	ensureNonEmpty(&es, n, rng)
	return sparse.MustCOO(n, n, es)
}

// Uniform generates an n×n matrix with exactly per nonzeros in every
// row. jitter adds ±jitter to individual rows (0 = perfectly uniform,
// the ELL sweet spot).
func Uniform(n, per, jitter int, seed int64) *sparse.COO {
	rng := rand.New(rand.NewSource(seed))
	var es []sparse.Entry
	for i := 0; i < n; i++ {
		k := per
		if jitter > 0 {
			k += rng.Intn(2*jitter+1) - jitter
		}
		if k < 1 {
			k = 1
		}
		if k > n {
			k = n
		}
		for _, j := range sampleDistinct(rng, n, k) {
			es = append(es, sparse.Entry{Row: i, Col: j, Val: val(rng)})
		}
	}
	return sparse.MustCOO(n, n, es)
}

// Random generates rows×cols Erdős–Rényi scatter with the given number
// of nonzeros (duplicates collapse, so the result may hold slightly
// fewer).
func Random(rows, cols, nnz int, seed int64) *sparse.COO {
	rng := rand.New(rand.NewSource(seed))
	es := make([]sparse.Entry, 0, nnz)
	for k := 0; k < nnz; k++ {
		es = append(es, sparse.Entry{Row: rng.Intn(rows), Col: rng.Intn(cols), Val: val(rng)})
	}
	ensureNonEmpty(&es, min(rows, cols), rng)
	return sparse.MustCOO(rows, cols, es)
}

// PowerLaw generates an n×n matrix whose row lengths follow an
// approximate Zipf distribution with exponent alpha and mean roughly
// avgPer — the skewed-row regime where HYB and CSR5 earn their keep.
func PowerLaw(n, avgPer int, alpha float64, seed int64) *sparse.COO {
	rng := rand.New(rand.NewSource(seed))
	var es []sparse.Entry
	// Sample row weights w_i ∝ rank^{-alpha} over a random permutation
	// of rows, scaled to the target total nnz.
	perm := rng.Perm(n)
	weights := make([]float64, n)
	total := 0.0
	for r := range weights {
		w := math.Pow(float64(r+1), -alpha)
		weights[perm[r]] = w
		total += w
	}
	target := float64(n * avgPer)
	for i := 0; i < n; i++ {
		k := int(weights[i] / total * target)
		if k < 1 {
			k = 1
		}
		if k > n {
			k = n
		}
		if k > n/2 {
			for _, j := range sampleDistinct(rng, n, k) {
				es = append(es, sparse.Entry{Row: i, Col: j, Val: val(rng)})
			}
		} else {
			for c := 0; c < k; c++ {
				es = append(es, sparse.Entry{Row: i, Col: rng.Intn(n), Val: val(rng)})
			}
		}
	}
	return sparse.MustCOO(n, n, es)
}

// Blocked generates an n×n matrix of nblocks dense bxb blocks at
// block-aligned positions concentrated around the principal diagonal
// (FEM meshes couple spatially neighbouring unknowns, so their block
// sparsity is band-dominated) with interior fill blockFill — the
// structure BSR is built for.
func Blocked(n, nblocks, b int, blockFill float64, seed int64) *sparse.COO {
	rng := rand.New(rand.NewSource(seed))
	if b <= 0 {
		b = sparse.DefaultBlockSize
	}
	grid := n / b
	if grid < 1 {
		grid = 1
	}
	bandwidth := grid/8 + 1
	var es []sparse.Entry
	for bl := 0; bl < nblocks; bl++ {
		br := rng.Intn(grid)
		bc := br + rng.Intn(2*bandwidth+1) - bandwidth
		if bc < 0 {
			bc = 0
		}
		if bc >= grid {
			bc = grid - 1
		}
		for i := 0; i < b; i++ {
			for j := 0; j < b; j++ {
				r, c := br*b+i, bc*b+j
				if r >= n || c >= n {
					continue
				}
				if blockFill >= 1 || rng.Float64() < blockFill {
					es = append(es, sparse.Entry{Row: r, Col: c, Val: val(rng)})
				}
			}
		}
	}
	ensureNonEmpty(&es, n, rng)
	return sparse.MustCOO(n, n, es)
}

// Hypersparse generates a rows×cols matrix with nnz ≪ rows: most rows
// empty, the regime where CSR's per-row costs dominate and COO wins.
func Hypersparse(rows, cols, nnz int, seed int64) *sparse.COO {
	rng := rand.New(rand.NewSource(seed))
	es := make([]sparse.Entry, 0, nnz)
	for k := 0; k < nnz; k++ {
		es = append(es, sparse.Entry{Row: rng.Intn(rows), Col: rng.Intn(cols), Val: val(rng)})
	}
	ensureNonEmpty(&es, min(rows, cols), rng)
	return sparse.MustCOO(rows, cols, es)
}

// Kronecker generates RMAT-style self-similar scatter: each nonzero
// walks levels of a 2×2 probability grid (a,b;c,d), producing the
// clustered, skewed structure of graph adjacency matrices.
func Kronecker(n, nnz int, a, b, c float64, seed int64) *sparse.COO {
	rng := rand.New(rand.NewSource(seed))
	levels := 0
	for 1<<levels < n {
		levels++
	}
	size := 1 << levels
	es := make([]sparse.Entry, 0, nnz)
	for k := 0; k < nnz; k++ {
		r, cl := 0, 0
		for l := 0; l < levels; l++ {
			u := rng.Float64()
			switch {
			case u < a:
				// top-left
			case u < a+b:
				cl |= 1 << l
			case u < a+b+c:
				r |= 1 << l
			default:
				r |= 1 << l
				cl |= 1 << l
			}
		}
		if r < n && cl < n {
			es = append(es, sparse.Entry{Row: r, Col: cl, Val: val(rng)})
		}
	}
	_ = size
	ensureNonEmpty(&es, n, rng)
	return sparse.MustCOO(n, n, es)
}

// UniformOutliers generates an n×n matrix where every row has exactly
// per nonzeros except for a few outlier rows of length heavy — the
// mostly-regular-with-exceptions structure HYB splits profitably and
// that blows up ELL's padded slab.
func UniformOutliers(n, per, outliers, heavy int, seed int64) *sparse.COO {
	rng := rand.New(rand.NewSource(seed))
	if heavy > n {
		heavy = n
	}
	heavyRows := map[int]bool{}
	for len(heavyRows) < outliers && len(heavyRows) < n {
		heavyRows[rng.Intn(n)] = true
	}
	var es []sparse.Entry
	for i := 0; i < n; i++ {
		k := per
		if heavyRows[i] {
			k = heavy
		}
		if k > n {
			k = n
		}
		for _, j := range sampleDistinct(rng, n, k) {
			es = append(es, sparse.Entry{Row: i, Col: j, Val: val(rng)})
		}
	}
	return sparse.MustCOO(n, n, es)
}

// ensureNonEmpty guarantees at least one nonzero so downstream stats and
// representations never divide by zero.
func ensureNonEmpty(es *[]sparse.Entry, n int, rng *rand.Rand) {
	if len(*es) == 0 && n > 0 {
		*es = append(*es, sparse.Entry{Row: rng.Intn(n), Col: rng.Intn(n), Val: 1})
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
