package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestSortEntriesDuplicateOrder: duplicates are summed in the order the
// (unstable) sort leaves them, so a sort that permutes equal keys
// differently changes canonical values in the last place — and with
// them pattern-independent things downstream (labels, SpMV results).
// The reference is the sort.Slice call sortEntries used to be; both are
// the same pdqsort and must leave the same permutation. Values span
// thirty orders of magnitude so that any reordering of a sum shows.
func TestSortEntriesDuplicateOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{5, 12, 13, 50, 51, 333, 2500, 40000} {
		for trial := 0; trial < 8; trial++ {
			// Few distinct positions: most entries are duplicates.
			side := 2 + rng.Intn(1+n/(1+trial))
			es := make([]Entry, n)
			for i := range es {
				es[i] = Entry{Row: rng.Intn(side), Col: rng.Intn(side),
					Val: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))}
			}
			ref := append([]Entry(nil), es...)
			sort.Slice(ref, func(i, j int) bool {
				if ref[i].Row != ref[j].Row {
					return ref[i].Row < ref[j].Row
				}
				return ref[i].Col < ref[j].Col
			})
			got, err := NewCOO(side, side, es)
			if err != nil {
				t.Fatal(err)
			}
			k := 0
			for i := 0; i < len(ref); {
				v, j := ref[i].Val, i+1
				for ; j < len(ref) && ref[j].Row == ref[i].Row && ref[j].Col == ref[i].Col; j++ {
					v += ref[j].Val
				}
				if v != 0 {
					if k >= got.NNZ() || int(got.Rows[k]) != ref[i].Row || int(got.Cols[k]) != ref[i].Col ||
						math.Float64bits(got.Vals[k]) != math.Float64bits(v) {
						t.Fatalf("n=%d trial %d: canonical entry %d differs from the sort.Slice reference (%d,%d)=%x",
							n, trial, k, ref[i].Row, ref[i].Col, math.Float64bits(v))
					}
					k++
				}
				i = j
			}
			if k != got.NNZ() {
				t.Fatalf("n=%d trial %d: %d canonical entries, reference %d", n, trial, got.NNZ(), k)
			}
		}
	}
}
