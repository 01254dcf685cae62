package sparse

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// FuzzReadMatrixMarket drives the resource-governed reader with
// arbitrary bytes and asserts the ingestion contract: no panic, no
// hang (the limits bound all work), and every rejection is classified
// into the typed taxonomy. Accepted streams must produce a matrix that
// honours the configured caps.
func FuzzReadMatrixMarket(f *testing.F) {
	seeds := []string{
		"",
		"%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 2.5\n3 3 1e2\n",
		"%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 1\n2 1 5\n3 3 2\n",
		"%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n",
		"%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 -7\n",
		"%%MatrixMarket matrix coordinate real general\n% comment\n\n3 3 0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n2 2 1\n",
		"%%MatrixMarket matrix coordinate real general\n99999999 99999999 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 NaN\n",
		"%%MatrixMarket matrix coordinate complex hermitian\n1 1 1\n1 1 1 0\n",
		"%%MatrixMarket matrix coordinate real general\n-1 2 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n1 5 2\n1 2 3\n1 5 -1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1" + strings.Repeat("0", 300) + "\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	lim := Limits{
		MaxRows:         1 << 12,
		MaxCols:         1 << 12,
		MaxNNZ:          1 << 12,
		MaxLineBytes:    1 << 8,
		Duplicates:      DupSum,
		RejectNonFinite: true,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadMatrixMarketLimits(context.Background(), strings.NewReader(string(data)), lim)
		if err != nil {
			if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrTooLarge) && !errors.Is(err, ErrUnsupported) {
				t.Fatalf("untyped ingestion error: %v", err)
			}
			return
		}
		rows, cols := c.Dims()
		if rows <= 0 || cols <= 0 || rows > lim.MaxRows || cols > lim.MaxCols {
			t.Fatalf("accepted matrix breaks dimension caps: %dx%d", rows, cols)
		}
		if c.NNZ() > 2*lim.MaxNNZ { // symmetric expansion at most doubles
			t.Fatalf("accepted matrix breaks nnz cap: %d", c.NNZ())
		}
		for k := range c.Vals {
			if int(c.Rows[k]) >= rows || int(c.Cols[k]) >= cols || c.Rows[k] < 0 || c.Cols[k] < 0 {
				t.Fatalf("entry %d out of range: (%d,%d) in %dx%d", k, c.Rows[k], c.Cols[k], rows, cols)
			}
		}
	})
}

// FuzzComputeStats is differential: the bytes become a small canonical
// COO — three bytes of shape (up to 64 × 4096, wide enough for more
// than four lines to meet in one set of either gather cache), then
// three bytes per entry — and the array-indexed sweep must return
// exactly the Stats of the map-based reference, with and without the
// cache simulation.
func FuzzComputeStats(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 0, 0, 0, 0, 1, 1, 0, 2, 2, 0, 3, 3, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{63, 255, 15, 0, 0, 0, 0, 0, 4, 0, 0, 8, 0, 0, 12, 0, 0, 15, 63, 255, 15, 1, 0, 4})
	f.Add([]byte{12, 200, 5, 5, 1, 0, 5, 2, 0, 6, 1, 0, 7, 9, 0, 7, 200, 3, 11, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		rows, cols := 1+int(data[0])%64, 1+(int(data[1])|int(data[2])<<8)%4096
		var es []Entry
		for d := data[3:]; len(d) >= 3; d = d[3:] {
			es = append(es, Entry{Row: int(d[0]) % rows, Col: (int(d[1]) | int(d[2])<<8) % cols, Val: 1})
		}
		c := MustCOO(rows, cols, es)
		if got, want := ComputeStats(c), refComputeStats(c, true); got != want {
			t.Fatalf("%dx%d, %d nonzeros: ComputeStats\n got %+v\nwant %+v", rows, cols, c.NNZ(), got, want)
		}
		if got, want := c.StatsLite(), refComputeStats(c, false); got != want {
			t.Fatalf("%dx%d, %d nonzeros: StatsLite\n got %+v\nwant %+v", rows, cols, c.NNZ(), got, want)
		}
	})
}
