package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddAndScale(t *testing.T) {
	a := MustCOO(2, 2, []Entry{{0, 0, 1}, {1, 1, 2}})
	b := MustCOO(2, 2, []Entry{{0, 0, -1}, {0, 1, 3}})
	sum, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// (0,0) cancels; (0,1)=3; (1,1)=2.
	if sum.NNZ() != 2 {
		t.Fatalf("nnz %d", sum.NNZ())
	}
	d := sum.Dense()
	if d[1] != 3 || d[3] != 2 {
		t.Fatalf("sum %v", d)
	}
	if _, err := Add(a, MustCOO(3, 2, nil)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// Property: Add is commutative and adds the dense forms element-wise.
func TestAddScaleProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a := randomCOO(rng, n, n, rng.Intn(n*n/2+1))
		b := randomCOO(rng, n, n, rng.Intn(n*n/2+1))
		ab, _ := Add(a, b)
		ba, _ := Add(b, a)
		if !ab.Equal(ba) {
			return false
		}
		da, db, dsum := a.Dense(), b.Dense(), ab.Dense()
		for i := range dsum {
			if math.Abs(da[i]+db[i]-dsum[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
