package sparse

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadMatrixMarketGeneral(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 2.5
2 2 -1
3 1 4
3 3 1e2
`
	c, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if r, cl := c.Dims(); r != 3 || cl != 3 || c.NNZ() != 4 {
		t.Fatalf("dims %dx%d nnz %d", r, cl, c.NNZ())
	}
	d := c.Dense()
	if d[0] != 2.5 || d[4] != -1 || d[6] != 4 || d[8] != 100 {
		t.Fatalf("values wrong: %v", d)
	}
}

func TestReadMatrixMarketSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 1
2 1 5
3 3 2
`
	c, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 4 { // (1,0) mirrored to (0,1); diagonals not mirrored
		t.Fatalf("nnz = %d, want 4", c.NNZ())
	}
	d := c.Dense()
	if d[1] != 5 || d[3] != 5 {
		t.Fatalf("symmetry expansion wrong: %v", d)
	}
}

func TestReadMatrixMarketSkewSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3
`
	c, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d := c.Dense()
	if d[2] != 3 || d[1] != -3 {
		t.Fatalf("skew expansion wrong: %v", d)
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
`
	c, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Vals[0] != 1 || c.Vals[1] != 1 {
		t.Fatalf("pattern values: %v", c.Vals)
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2 4\n",
		"%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1 0\n",
		"%%MatrixMarket matrix coordinate real hermitian\n2 2 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n0 2 0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n", // truncated
		"%%MatrixMarket matrix coordinate real general\n2 2 1\nx y z\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",   // missing value
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1\n", // out of range
	}
	for i, src := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Fatalf("case %d: accepted bad input", i)
		}
	}
}

func TestMatrixMarketRoundTripFile(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := randomCOO(rng, 17, 23, 80)
	path := filepath.Join(t.TempDir(), "m.mtx")
	if err := WriteMatrixMarketFile(path, c); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarketFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(c) {
		t.Fatal("file round trip lost data")
	}
}

func TestWriteMatrixMarketStream(t *testing.T) {
	c := MustCOO(2, 2, []Entry{{0, 0, 1.5}, {1, 1, -2}})
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "%%MatrixMarket matrix coordinate real general\n2 2 2\n") {
		t.Fatalf("bad header: %q", out)
	}
	if !strings.Contains(out, "1 1 1.5") || !strings.Contains(out, "2 2 -2") {
		t.Fatalf("missing entries: %q", out)
	}
}

func TestReadMatrixMarketFileMissing(t *testing.T) {
	if _, err := ReadMatrixMarketFile("/nonexistent/m.mtx"); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// TestReadMatrixMarketSymmetricDiagonal: diagonal entries of symmetric
// and skew-symmetric files must not be mirrored (a skew diagonal would
// otherwise cancel itself, a symmetric one would double).
func TestReadMatrixMarketSymmetricDiagonal(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 7
2 1 3
`
	c, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d := c.Dense()
	if d[0] != 7 || d[1] != 3 || d[2] != 3 {
		t.Fatalf("symmetric diagonal handling wrong: %v", d)
	}
	src = `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 2
1 1 4
2 1 3
`
	c, err = ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d = c.Dense()
	if d[0] != 4 || d[2] != 3 || d[1] != -3 {
		t.Fatalf("skew diagonal handling wrong: %v", d)
	}
}

// TestReadMatrixMarketDegenerateShapes: 1×N and N×1 matrices and a
// declared-nnz-zero stream are all valid coordinate files.
func TestReadMatrixMarketDegenerateShapes(t *testing.T) {
	c, err := ReadMatrixMarket(strings.NewReader(
		"%%MatrixMarket matrix coordinate real general\n1 5 2\n1 2 3\n1 5 -1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r, cl := c.Dims(); r != 1 || cl != 5 || c.NNZ() != 2 {
		t.Fatalf("1xN: dims %dx%d nnz %d", r, cl, c.NNZ())
	}

	c, err = ReadMatrixMarket(strings.NewReader(
		"%%MatrixMarket matrix coordinate real general\n4 1 1\n3 1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r, cl := c.Dims(); r != 4 || cl != 1 {
		t.Fatalf("Nx1: dims %dx%d", r, cl)
	}

	c, err = ReadMatrixMarket(strings.NewReader(
		"%%MatrixMarket matrix coordinate real general\n3 3 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 0 {
		t.Fatalf("declared-zero file has nnz %d", c.NNZ())
	}
	// A 1x1 symmetric file with only its diagonal.
	c, err = ReadMatrixMarket(strings.NewReader(
		"%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 9\n"))
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 1 || c.Vals[0] != 9 {
		t.Fatalf("1x1 symmetric wrong: %+v", c)
	}
}

// TestReadMatrixMarketDeclaredCountEnforced: the size line is a
// contract in both directions — too few entries and too many entries
// are both ErrMalformed.
func TestReadMatrixMarketDeclaredCountEnforced(t *testing.T) {
	over := "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 1\n2 2 2\n"
	if _, err := ReadMatrixMarket(strings.NewReader(over)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("overfull stream: %v", err)
	}
	under := "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1\n"
	if _, err := ReadMatrixMarket(strings.NewReader(under)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated stream: %v", err)
	}
	zero := "%%MatrixMarket matrix coordinate real general\n3 3 0\n1 1 1\n"
	if _, err := ReadMatrixMarket(strings.NewReader(zero)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("entries after declared zero: %v", err)
	}
}

func TestReadMatrixMarketErrorTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want error
	}{
		{"array layout", "%%MatrixMarket matrix array real general\n2 2\n1\n1\n1\n1\n", ErrUnsupported},
		{"complex values", "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n", ErrUnsupported},
		{"hermitian", "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n", ErrUnsupported},
		{"bad banner", "hello\n", ErrMalformed},
		{"no size line", "%%MatrixMarket matrix coordinate real general\n% only comments\n", ErrMalformed},
		{"bad size line", "%%MatrixMarket matrix coordinate real general\n2 2\n", ErrMalformed},
		{"nnz above rows*cols", "%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 1\n1 2 1\n2 1 1\n2 2 1\n1 1 1\n", ErrMalformed},
		{"out of range", "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1\n", ErrMalformed},
		{"zero index", "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n", ErrMalformed},
	}
	for _, c := range cases {
		_, err := ReadMatrixMarket(strings.NewReader(c.src))
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestReadMatrixMarketLimitsCaps(t *testing.T) {
	lim := Limits{MaxRows: 10, MaxCols: 10, MaxNNZ: 3, MaxLineBytes: 64}
	ctx := context.Background()

	if _, err := ReadMatrixMarketLimits(ctx, strings.NewReader(
		"%%MatrixMarket matrix coordinate real general\n100 2 1\n1 1 1\n"), lim); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("row cap: %v", err)
	}
	if _, err := ReadMatrixMarketLimits(ctx, strings.NewReader(
		"%%MatrixMarket matrix coordinate real general\n2 100 1\n1 1 1\n"), lim); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("col cap: %v", err)
	}
	if _, err := ReadMatrixMarketLimits(ctx, strings.NewReader(
		"%%MatrixMarket matrix coordinate real general\n10 10 9\n"), lim); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("nnz cap: %v", err)
	}
	long := "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1" + strings.Repeat(" ", 100) + "\n"
	if _, err := ReadMatrixMarketLimits(ctx, strings.NewReader(long), lim); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("line cap: %v", err)
	}
	// Within every cap: accepted.
	if _, err := ReadMatrixMarketLimits(ctx, strings.NewReader(
		"%%MatrixMarket matrix coordinate real general\n10 10 2\n1 1 1\n2 2 1\n"), lim); err != nil {
		t.Fatalf("within caps rejected: %v", err)
	}
}

func TestReadMatrixMarketDuplicatePolicy(t *testing.T) {
	src := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n1 1 2\n"
	c, err := ReadMatrixMarket(strings.NewReader(src)) // DupSum default
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 1 || c.Vals[0] != 3 {
		t.Fatalf("DupSum: %+v", c)
	}
	lim := Unlimited()
	lim.Duplicates = DupReject
	if _, err := ReadMatrixMarketLimits(context.Background(), strings.NewReader(src), lim); !errors.Is(err, ErrMalformed) {
		t.Fatalf("DupReject: %v", err)
	}
}

func TestReadMatrixMarketRejectNonFinite(t *testing.T) {
	src := "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 NaN\n"
	if _, err := ReadMatrixMarket(strings.NewReader(src)); err != nil {
		t.Fatalf("trusted reader rejected NaN: %v", err)
	}
	lim := Unlimited()
	lim.RejectNonFinite = true
	for _, v := range []string{"NaN", "Inf", "-Inf"} {
		src := "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 " + v + "\n"
		if _, err := ReadMatrixMarketLimits(context.Background(), strings.NewReader(src), lim); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%s accepted: %v", v, err)
		}
	}
}

// TestReadMatrixMarketContextCancel: a cancelled context abandons a
// long stream instead of parsing it to completion.
func TestReadMatrixMarketContextCancel(t *testing.T) {
	var sb strings.Builder
	n := 3 * CtxCheckEvery
	fmt.Fprintf(&sb, "%%%%MatrixMarket matrix coordinate real general\n%d 1 %d\n", n, n)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&sb, "%d 1 1\n", i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ReadMatrixMarketLimits(ctx, strings.NewReader(sb.String()), Unlimited())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
