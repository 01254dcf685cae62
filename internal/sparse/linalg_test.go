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
	s := Scale(a, -2)
	if s.Dense()[0] != -2 || s.Dense()[3] != -4 {
		t.Fatalf("scale %v", s.Dense())
	}
}

// Property: Add is commutative and Scale distributes over Add.
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
		left := Scale(ab, 2.5)
		right, _ := Add(Scale(a, 2.5), Scale(b, 2.5))
		da, db := left.Dense(), right.Dense()
		for i := range da {
			if math.Abs(da[i]-db[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDiagonalRoundTrip(t *testing.T) {
	a := MustCOO(3, 3, []Entry{{0, 0, 5}, {1, 2, 1}, {2, 2, -3}})
	d := Diagonal(a)
	if d[0] != 5 || d[1] != 0 || d[2] != -3 {
		t.Fatalf("diag %v", d)
	}
	b, err := WithDiagonal(a, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	nd := Diagonal(b)
	if nd[0] != 1 || nd[1] != 2 || nd[2] != 3 {
		t.Fatalf("new diag %v", nd)
	}
	// Off-diagonal untouched.
	if b.Dense()[1*3+2] != 1 {
		t.Fatal("off-diagonal lost")
	}
	if _, err := WithDiagonal(a, []float64{1}); err == nil {
		t.Fatal("short diagonal accepted")
	}
}
