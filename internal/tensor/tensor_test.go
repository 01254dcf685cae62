package tensor

import "testing"

func TestNewAndShape(t *testing.T) {
	a := New(2, 3, 4)
	if a.Rank() != 3 || a.Size() != 24 {
		t.Fatalf("got rank %d size %d", a.Rank(), a.Size())
	}
	if a.Dim(0) != 2 || a.Dim(1) != 3 || a.Dim(2) != 4 {
		t.Fatalf("dims wrong: %v", a.Shape())
	}
	for _, v := range a.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestNewScalar(t *testing.T) {
	s := New()
	if s.Size() != 1 || s.Rank() != 0 {
		t.Fatalf("scalar tensor: size=%d rank=%d", s.Size(), s.Rank())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dim")
		}
	}()
	New(2, -1)
}

func TestFromSliceAliases(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	a := FromSlice(d, 2, 2)
	d[3] = 9
	if a.At(1, 1) != 9 {
		t.Fatal("FromSlice must alias the input slice")
	}
}

func TestFromSliceWrongLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSetRowMajor(t *testing.T) {
	a := New(2, 3)
	a.Set(7, 1, 2)
	if a.Data()[5] != 7 {
		t.Fatalf("row-major layout violated: %v", a.Data())
	}
	if a.At(1, 2) != 7 {
		t.Fatal("At after Set")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	a := New(2, 2)
	for _, idx := range [][]int{{2, 0}, {0, -1}, {0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for index %v", idx)
				}
			}()
			a.At(idx...)
		}()
	}
}

func TestCloneIndependent(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(100, 0, 0)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestReshapeSharesStorage(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(42, 2, 1)
	if a.At(1, 2) != 42 {
		t.Fatal("Reshape must share storage")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad reshape volume must panic")
		}
	}()
	a.Reshape(4, 2)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{10, 20, 30}, 3)
	a.Add(b)
	want := []float64{11, 22, 33}
	for i, w := range want {
		if a.Data()[i] != w {
			t.Fatalf("Add: got %v", a.Data())
		}
	}
	a.Sub(b)
	for i, w := range []float64{1, 2, 3} {
		if a.Data()[i] != w {
			t.Fatalf("Sub: got %v want %v at %d", a.Data(), w, i)
		}
	}
}

func TestDotSumMaxArgMaxNorm(t *testing.T) {
	a := FromSlice([]float64{3, -1, 4}, 3)
	if got := a.Sum(); got != 6 {
		t.Fatalf("Sum got %v", got)
	}
	if got := a.Max(); got != 4 {
		t.Fatalf("Max got %v", got)
	}
	if got := a.ArgMax(); got != 2 {
		t.Fatalf("ArgMax got %v", got)
	}
}

func TestFillZeroApply(t *testing.T) {
	a := New(4)
	a.Fill(2)
	if a.Sum() != 8 {
		t.Fatalf("Fill: %v", a.Data())
	}
	a.Zero()
	if a.Sum() != 0 {
		t.Fatal("Zero failed")
	}
}

// --- convolution geometry ---

func TestConvGeomOutDims(t *testing.T) {
	g := ConvGeom{InC: 1, InH: 5, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1}
	if g.OutH() != 3 || g.OutW() != 3 {
		t.Fatalf("out dims %dx%d", g.OutH(), g.OutW())
	}
	g2 := ConvGeom{InC: 1, InH: 6, InW: 6, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	if g2.OutH() != 3 || g2.OutW() != 3 {
		t.Fatalf("padded out dims %dx%d", g2.OutH(), g2.OutW())
	}
}

func TestConvGeomValidate(t *testing.T) {
	good := ConvGeom{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := []ConvGeom{
		{InC: 0, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 1, StrideW: 1},
		{InC: 1, InH: 4, InW: 4, KH: 0, KW: 2, StrideH: 1, StrideW: 1},
		{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 0, StrideW: 1},
		{InC: 1, InH: 4, InW: 4, KH: 2, KW: 2, StrideH: 1, StrideW: 1, PadH: -1},
		{InC: 1, InH: 2, InW: 2, KH: 5, KW: 5, StrideH: 1, StrideW: 1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Fatalf("bad geometry %d accepted: %+v", i, g)
		}
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := New(2)
	if small.String() == "" {
		t.Fatal("empty String")
	}
	big := New(100)
	if big.String() == "" {
		t.Fatal("empty String for big tensor")
	}
}
