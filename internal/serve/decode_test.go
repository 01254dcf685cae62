package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// predictRequest is the JSON request body as encoding/json sees it: the
// shape tests marshal bodies from, and the target of the reference
// decoder below.
type predictRequest struct {
	Rows        int          `json:"rows"`
	Cols        int          `json:"cols"`
	Entries     [][3]float64 `json:"entries"` // [row, col, value]
	SpmvSeconds float64      `json:"spmv_seconds,omitempty"`
}

// decodeJSONReference is the JSON half of DecodeMatrixMeta as it was
// before the hand-rolled scanner: encoding/json into predictRequest,
// limits, integer-coordinate check, copy into []sparse.Entry, NewCOO.
// It is the oracle FuzzDecodeJSONDifferential holds the scanner to. One
// rule was added to it since: a dimension or coordinate past int32 is
// ErrTooLarge whatever the limits say (it used to be truncated into
// COO's indices), checked where the scanner checks it — after every
// coordinate has been seen to be an integer.
func decodeJSONReference(data []byte, lim sparse.Limits) (*sparse.COO, float64, error) {
	var req predictRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, 0, fmt.Errorf("parsing JSON body: %w", err)
	}
	if (lim.MaxRows > 0 && req.Rows > lim.MaxRows) || req.Rows > math.MaxInt32 {
		return nil, 0, fmt.Errorf("%w: %d rows exceeds cap %d", sparse.ErrTooLarge, req.Rows, lim.MaxRows)
	}
	if (lim.MaxCols > 0 && req.Cols > lim.MaxCols) || req.Cols > math.MaxInt32 {
		return nil, 0, fmt.Errorf("%w: %d cols exceeds cap %d", sparse.ErrTooLarge, req.Cols, lim.MaxCols)
	}
	if lim.MaxNNZ > 0 && len(req.Entries) > lim.MaxNNZ {
		return nil, 0, fmt.Errorf("%w: %d entries exceeds cap %d", sparse.ErrTooLarge, len(req.Entries), lim.MaxNNZ)
	}
	entries := make([]sparse.Entry, len(req.Entries))
	for i, e := range req.Entries {
		r0, c0 := int(e[0]), int(e[1])
		if float64(r0) != e[0] || float64(c0) != e[1] {
			return nil, 0, fmt.Errorf("entry %d: non-integer coordinates (%g,%g)", i, e[0], e[1])
		}
		entries[i] = sparse.Entry{Row: r0, Col: c0, Val: e[2]}
	}
	for _, e := range entries {
		if e.Row > math.MaxInt32 || e.Col > math.MaxInt32 {
			return nil, 0, fmt.Errorf("%w: entry (%d,%d) does not fit 32-bit indices", sparse.ErrTooLarge, e.Row, e.Col)
		}
	}
	m, err := sparse.NewCOO(req.Rows, req.Cols, entries)
	if err != nil {
		return nil, 0, fmt.Errorf("building matrix: %w", err)
	}
	clientSec := req.SpmvSeconds
	if clientSec < 0 || clientSec != clientSec || clientSec > 1e9 {
		clientSec = 0
	}
	return m, clientSec, nil
}

// stricter names the rule by which the scanner refuses a body the
// reference decoder takes, "" when no such rule applies. These four are
// the whole list of deliberate differences (README, "Request grammar"):
// everything encoding/json forgives beyond them, the scanner forgives
// too. body must be one the reference accepted.
func stricter(body []byte) string {
	dec := json.NewDecoder(bytes.NewReader(body))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return "" // null: refused by both, for its dimensions
	}
	exact := map[string]bool{`"rows"`: true, `"cols"`: true, `"entries"`: true, `"spmv_seconds"`: true}
	seen := map[string]bool{}
	for dec.More() {
		start := dec.InputOffset()
		if _, err := dec.Token(); err != nil {
			return ""
		}
		name := string(bytes.TrimLeft(body[start:dec.InputOffset()], " \t\r\n,"))
		switch {
		case !exact[name]:
			return "a field name in another case or with an escape in it"
		case seen[name]:
			return "a field given twice"
		}
		seen[name] = true
		if name != `"entries"` {
			var skip json.RawMessage
			if dec.Decode(&skip) != nil {
				return ""
			}
			continue
		}
		if t, _ := dec.Token(); t != json.Delim('[') {
			continue // null: no entries
		}
		for dec.More() {
			if t, _ := dec.Token(); t != json.Delim('[') {
				return "null for a triplet"
			}
			n := 0
			for ; dec.More(); n++ {
				var v json.RawMessage
				if dec.Decode(&v) != nil {
					return ""
				}
				if string(v) == "null" {
					return "null for a number in a triplet"
				}
			}
			if n != 3 {
				return "a triplet of fewer or more than three numbers"
			}
			dec.Token() // ]
		}
		dec.Token() // ]
	}
	return ""
}

// checkScannedPattern holds sc.Pattern to the matrix a whole decode of
// the same body gives: its dimensions and index arrays, hashing to the
// fingerprint the scan computed — asked while a streamed body's values
// are still text, and again once Matrix has converted them.
func checkScannedPattern(t *testing.T, sc *Scanned, want *sparse.COO) {
	t.Helper()
	for _, when := range []string{"after the scan", "after Matrix"} {
		streamed := sc.Streamed()
		p, err := sc.Pattern()
		if err != nil {
			t.Fatalf("%s: accepted by the scan, refused by Pattern: %v", when, err)
		}
		pr, pc := p.Dims()
		wr, wc := want.Dims()
		if pr != wr || pc != wc || !slices.Equal(p.Rows, want.Rows) || !slices.Equal(p.Cols, want.Cols) {
			t.Fatalf("%s: pattern is %dx%d with %d positions, the decoded matrix %dx%d with %d (or they differ)", when, pr, pc, p.NNZ(), wr, wc, want.NNZ())
		}
		if g, w := p.Fingerprint(), sc.Fingerprint(); g != w {
			t.Fatalf("%s: pattern fingerprints to %x, the scan to %x", when, g, w)
		}
		if sc.Streamed() != streamed {
			t.Fatalf("%s: Pattern converted the body's values", when)
		}
		if _, err := sc.Matrix(); err != nil {
			t.Fatalf("accepted by the scan, refused by Matrix: %v", err)
		}
	}
}

// predictJSONSeeds is the JSON seed corpus shared by FuzzPredictJSON
// and FuzzDecodeJSONDifferential.
var predictJSONSeeds = []string{
	`{"rows":3,"cols":3,"entries":[[0,0,1],[1,2,-4]]}`,
	`{"rows":0,"cols":0,"entries":[]}`,
	`{"rows":3`,
	`{"rows":3,"cols":3,"entries":[[0.5,1,1]]}`,
	`{"rows":99999999,"cols":99999999,"entries":[]}`,
	`{"rows":2,"cols":2,"entries":[[5,0,1]]}`,
	`{"rows":3,"cols":3,"entries":[],"extra":1}`,
	"not a matrix at all",
	"",
}

// FuzzDecodeJSONDifferential is the scanner's correctness contract: on
// any body, it and the encoding/json reference agree on accept or
// refuse. On accept, the scan alone — what a cache hit runs — yields
// the fingerprint of the reference's matrix, and materialising yields
// that matrix bit for bit: dimensions, every (row, col, value), the
// clamped spmv_seconds. On refuse, the status class is the reference's,
// except where a body is wrong twice and the two meet its defects in a
// different order (statusMayDiffer lists how). The scanner may refuse
// more only under a rule stricter() names. Limits are service-like:
// with none at all, dimensions up to 2^31-1 are accepted by both and an
// empty matrix that size is cheap.
func FuzzDecodeJSONDifferential(f *testing.F) {
	for _, s := range predictJSONSeeds {
		f.Add(s)
	}
	// One seed per way a number, a triplet, a field or the object can
	// be almost right.
	for _, v := range []string{
		"1e400", "-1e400", "1e-400", "NaN", "Infinity", "0x10", "1_000", ".5", "+1", "01", "1.", "-0",
		"-0.0", "-", "1e", "1e+", "1E2", "1.5e-1", "2.0", "2e0", "20e-1", "1.5.3", "null", "true", `"1"`,
		"9007199254740993", "123456789012345678", "1234567890123456789", "-9223372036854775808",
		"9223372036854775808", "0.8414709848078965", "1 ", "0", "0.0", "0e5", "0.000", "2147483647", "2147483648",
		"0." + strings.Repeat("0", 38) + "1", // 41 bytes: converted while scanning
		"0." + strings.Repeat("0", 37) + "1", // 40 bytes: kept as text
		strings.Repeat("1234567890", 30),     // a 300-byte mantissa
		"0." + strings.Repeat("0", 400) + "1", strings.Repeat("9", 400), "0." + strings.Repeat("0", 400),
	} {
		f.Add(`{"rows":3,"cols":3,"entries":[[1,2,` + v + `]]}`)
		f.Add(`{"rows":3,"cols":3,"entries":[[` + v + `,2,1]]}`)
		f.Add(`{"rows":` + v + `,"cols":3,"entries":[[0,0,1]]}`)
		f.Add(`{"rows":3,"cols":3,"entries":[[0,0,1]],"spmv_seconds":` + v + `}`)
	}
	for _, s := range []string{
		`{"rows":3,"cols":3,"entries":[[[0,0,1]]]}`,
		`{"rows":3,"cols":3,"entries":[0,0,1]}`,
		`{"rows":3,"cols":3,"entries":[[]]}`,
		`{"rows":3,"cols":3,"entries":[[1,2]]}`,
		`{"rows":3,"cols":3,"entries":[[1,2,3,4]]}`,
		`{"rows":3,"cols":3,"entries":[[1,2,3,"x",{"a":[]}]]}`,
		`{"rows":3,"cols":3,"entries":[null]}`,
		`{"rows":3,"cols":3,"entries":[[1,null,2]]}`,
		`{"rows":3,"cols":3,"entries":null}`,
		`{"rows":null,"cols":3,"entries":[]}`,
		`{"rows":3,"cols":3,"entries":[[0,0,1],]}`,
		`{"rows":3,"cols":3,"entries":[[0,0,1]],}`,
		`{"rows":3,"cols":3,"entries":[[0,0,1] [1,1,1]]}`,
		`{"rows":3,"rows":2,"cols":3,"entries":[[2,2,1]]}`,
		`{"rows":3,"cols":3,"entries":[[1,1,5]],"entries":[null]}`,
		`{"Rows":3,"COLS":3,"Entries":[[0,0,1]]}`,
		"{\"rowſ\":3,\"cols\":3,\"entries\":[[0,0,1]]}",
		`{"ro\u0077s":3,"cols":3,"entries":[[0,0,1]]}`,
		`{"ro\"ws":3,"cols":3,"entries":[[0,0,1]]}`,
		`{"rows":3,"cols":3,"entries":[[0,0,1]]} trailing`,
		`{"rows":3,"cols":3,"entries":[[0,0,1]]}{"rows":1}`,
		`{"entries":[[2,1,7],[0,0,1],[2,1,-7],[0,0,2],[0,0,0.5]],"spmv_seconds":0.125,"cols":3,"rows":3}`,
		" \t\r\n{ \"rows\" : 3 , \"cols\" : 3 , \"entries\" : [ [ 0 , 0 , 1 ] , [ 1 , 1 , 2 ] ] } ",
		"{\"rows\":3,\"cols\":3,\"entries\":[[0,\v0,1]]}",
		"\ufeff" + `{"rows":3,"cols":3,"entries":[]}`,
		`{}`, `null`, `[]`, `3`, `"rows"`, `{"rows"}`, `{"rows":}`, `{,}`, `{"rows":3 "cols":3}`,
		`{"rows":3,"cols":3,"entries":[[0,0,1]],"spmv_seconds":-1}`,
		`{"rows":3,"cols":3,"entries":[[0,0,1]],"spmv_seconds":1e10}`,
		`{"rows":3,"cols":3,"entries":[[-1,0,1]]}`,
		`{"rows":3,"cols":3,"entries":[[0,1e3,1]]}`,
		`{"rows":2000,"cols":3,"entries":[]}`,
		// What takes a body off the streamed path: a position twice, a
		// descending pair, a zero, in every place one can hide.
		`{"rows":3,"cols":3,"entries":[[1,1,2],[1,1,3]]}`,
		`{"rows":3,"cols":3,"entries":[[1,1,2],[1,1,-2]]}`,
		`{"rows":3,"cols":3,"entries":[[1,1,2],[1,0,3]]}`,
		`{"rows":3,"cols":3,"entries":[[1,1,2],[0,2,3]]}`,
		`{"rows":3,"cols":3,"entries":[[0,0,1],[1,1,0],[2,2,1]]}`,
		`{"rows":3,"cols":3,"entries":[[0,0,1],[1,1,-0.0e0],[2,2,1e-400]]}`,
		`{"entries":[[0,0,1],[1,2,0.5]],"rows":3,"cols":3}`,
		`{"entries":[[0,0,1],[5,2,0.5]],"rows":3,"cols":3}`,
		`{"entries":[[0,0,1],[-1,2,0.5]],"cols":3,"rows":3}`,
		`{"rows":3,"cols":3,"entries":[[-1,0,1],[3000000000,0,1]]}`,
		`{"rows":3,"cols":3,"entries":[[3000000000,0,1],[0.5,0,1]]}`,
		`{"rows":3,"cols":3,"entries":[[3000000000,0,1e400]]}`,
		`{"rows":3,"cols":3,"entries":[[3e9,0,1]]}`,
		`{"rows":2147483648,"cols":3,"entries":[]}`,
		`{"rows":3,"cols":3,"entries":[[0,0,1],[1,1,2]],"spmv_seconds":1e-3}`,
	} {
		f.Add(s)
	}
	f.Add(string(matrixJSON(40, 30))) // past MaxNNZ
	// A coordinate between 2^62 and 2^63 is an integer too wide (413),
	// not a non-integer (400): found by this target.
	f.Add(`{"entries":[[7000000000000000000,0,0]]}`)

	// Both shapes in one array: the straight-line triplet, then one with
	// a space and one with an exponent, which take the token path, then
	// the straight-line one again.
	f.Add(`{"rows":3,"cols":3,"entries":[[0,0,1],[0, 1,2],[0,2,3e0],[1,0,0.25]]}`)
	// Each spelling of zero in the shape the straight-line pass reads.
	for _, zero := range []string{"0", "-0", "0.000"} {
		f.Add(`{"rows":3,"cols":3,"entries":[[0,0,1],[1,1,` + zero + `],[2,2,1]]}`)
	}

	lim := sparse.Limits{MaxRows: 1 << 10, MaxCols: 1 << 10, MaxNNZ: 1 << 10, MaxLineBytes: 1 << 8}
	f.Fuzz(func(t *testing.T, body string) {
		data := []byte(body)
		if bytes.HasPrefix(bytes.TrimSpace(data), []byte("%%MatrixMarket")) {
			t.Skip() // sniffed as Matrix Market: not this decoder's
		}
		checkAgainstReference(t, data, lim)
	})
}

// checkAgainstReference holds the scanner to FuzzDecodeJSONDifferential's
// contract on one body.
func checkAgainstReference(t *testing.T, data []byte, lim sparse.Limits) {
	t.Helper()
	sc, scErr := ScanMatrix(context.Background(), data, "application/json", lim)
	got, gotSec, gotErr := DecodeMatrixMeta(context.Background(), data, "application/json", lim)
	want, wantSec, wantErr := decodeJSONReference(data, lim)
	if (scErr == nil) != (gotErr == nil) || IngestStatus(scErr) != IngestStatus(gotErr) {
		t.Fatalf("the scan says %v, the whole decode %v", scErr, gotErr)
	}
	if gotErr != nil {
		st := IngestStatus(gotErr)
		if st != 400 && st != 413 {
			t.Fatalf("rejection mapped to status %d (err %v)", st, gotErr)
		}
		if wantErr == nil {
			if stricter(data) == "" {
				t.Fatalf("refused a body the reference accepts, under no listed rule: %v", gotErr)
			}
			return
		}
		if ref := IngestStatus(wantErr); st != ref && !statusMayDiffer(data, lim, st) {
			t.Fatalf("refused with %d (%v), the reference with %d (%v)", st, gotErr, ref, wantErr)
		}
		return
	}
	if wantErr != nil {
		t.Fatalf("accepted a body the reference refuses: %v", wantErr)
	}
	if why := stricter(data); why != "" {
		t.Fatalf("accepted a body that has %s", why)
	}
	if g, w := sc.Fingerprint(), sparse.Fingerprint(want); g != w {
		t.Fatalf("scanned fingerprint %x (streamed %v), reference %x", g, sc.Streamed(), w)
	}
	if sc.Streamed() {
		var req predictRequest
		json.NewDecoder(bytes.NewReader(data)).Decode(&req)
		if want.NNZ() != len(req.Entries) {
			t.Fatalf("streamed a body whose %d triplets canonicalise to %d entries", len(req.Entries), want.NNZ())
		}
	}
	checkScannedPattern(t, sc, got)
	if m, err := sc.Matrix(); err != nil || !m.Equal(got) {
		t.Fatalf("materialising after the scan: %v, or not the matrix the whole decode gives", err)
	}
	gr, gc := got.Dims()
	wr, wc := want.Dims()
	if gr != wr || gc != wc || got.NNZ() != want.NNZ() {
		t.Fatalf("decoded %dx%d nnz %d, reference %dx%d nnz %d", gr, gc, got.NNZ(), wr, wc, want.NNZ())
	}
	for k := range want.Vals {
		if got.Rows[k] != want.Rows[k] || got.Cols[k] != want.Cols[k] ||
			math.Float64bits(got.Vals[k]) != math.Float64bits(want.Vals[k]) {
			t.Fatalf("entry %d: (%d,%d,%x), reference (%d,%d,%x)", k,
				got.Rows[k], got.Cols[k], math.Float64bits(got.Vals[k]),
				want.Rows[k], want.Cols[k], math.Float64bits(want.Vals[k]))
		}
	}
	if g, w := sparse.Fingerprint(got), sparse.Fingerprint(want); g != w {
		t.Fatalf("fingerprint %x, reference %x", g, w)
	}
	if math.Float64bits(gotSec) != math.Float64bits(wantSec) {
		t.Fatalf("spmv_seconds %v, reference %v", gotSec, wantSec)
	}
}

// TestDecodeJSONShapeBoundary is FuzzDecodeJSONDifferential's contract,
// deterministically, at the edges of the straight-line triplet shape:
// coordinates of 9 and 10 digits, values of 40 and 41 bytes, a negative
// one. Every prefix of each body, and every body with one byte deleted,
// a space inserted before it, or it replaced by a byte that can end,
// extend or break a token, is held to the reference.
func TestDecodeJSONShapeBoundary(t *testing.T) {
	long := "0." + strings.Repeat("1234567890", 4)[:38] // 40 bytes
	bodies := []string{
		`{"rows":2147483647,"cols":2147483647,"entries":[[0,999999999,-0.5],[999999999,1000000000,` + long + `],[1000000000,2147483646,` + long + `1],[2147483646,7,1]]}`,
		// 2^31-1 as a coordinate is outside any matrix an int32 can
		// index (400), 2^31 does not fit one (413): these are refused
		// until a mutation shortens them.
		`{"rows":2147483647,"cols":9,"entries":[[0,0,1],[2147483647,8,-0.5]]}`,
		`{"rows":9,"cols":9,"entries":[[0,0,1],[2147483648,8,-0.5]]}`,
	}
	lim := sparse.Limits{MaxNNZ: 1 << 10, MaxLineBytes: 1 << 8}
	if sc, err := ScanMatrix(context.Background(), []byte(bodies[0]), "", lim); err != nil || !sc.Streamed() {
		t.Fatalf("the sweep's first body is not streamed (err %v)", err)
	}
	check := func(body string) {
		t.Helper()
		defer func() {
			if t.Failed() {
				t.Logf("body %q", body)
			}
		}()
		checkAgainstReference(t, []byte(body), lim)
	}
	for _, body := range bodies {
		for n := 0; n <= len(body); n++ {
			check(body[:n])
		}
		for i := 0; i < len(body); i++ {
			check(body[:i] + body[i+1:])
			check(body[:i] + " " + body[i:])
			for _, b := range "e0-.,]1" {
				check(body[:i] + string(b) + body[i+1:])
			}
		}
	}
}

// statusMayDiffer reports whether a body both decoders refuse may be a
// 400 to one and a 413 to the other: only when it is wrong twice, once
// in each class, and they meet the defects in a different order. The
// scanner (status st) validates the grammar, integer coordinates
// included, in one pass and enforces MaxNNZ during it; the reference
// parses everything, then applies the caps, then looks at coordinates.
func statusMayDiffer(data []byte, lim sparse.Limits, st int) bool {
	if st == http.StatusRequestEntityTooLarge {
		// The scanner met the nnz cap ahead of a syntax error the
		// reference dies of first.
		return bytes.Count(data, []byte{'['}) > lim.MaxNNZ
	}
	// The reference met a cap; the scanner first saw what is malformed
	// with the caps lifted too, or broke a rule of its own.
	_, _, err := decodeJSONReference(data, sparse.Limits{})
	return (err != nil && !errors.Is(err, sparse.ErrTooLarge)) || stricter(data) != ""
}

// TestDecodeJSONMatchesReferenceOnGeneratedMatrices: the differential
// contract over bodies of the shape clients send — marshalled COO of
// every synthgen family, 17-digit values, and one body in shuffled
// order with duplicates so the sorting path is held to it too.
func TestDecodeJSONMatchesReferenceOnGeneratedMatrices(t *testing.T) {
	lim := sparse.DefaultLimits()
	check := func(name string, body []byte) {
		t.Helper()
		got, _, err := DecodeMatrixMeta(context.Background(), body, "application/json", lim)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, _, err := decodeJSONReference(body, lim)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !got.Equal(want) || sparse.Fingerprint(got) != sparse.Fingerprint(want) {
			t.Fatalf("%s: decoded matrix differs from the reference", name)
		}
	}
	for i, sp := range synthgen.SampleSpecs(40, 7, 400) {
		m := synthgen.Build(sp)
		rows, cols := m.Dims()
		req := predictRequest{Rows: rows, Cols: cols}
		for _, e := range m.Entries() {
			req.Entries = append(req.Entries, [3]float64{float64(e.Row), float64(e.Col), e.Val})
		}
		body, _ := json.Marshal(req)
		check(fmt.Sprintf("spec %d", i), body)

		// Reversed and doubled: unsorted input with a duplicate of every
		// entry.
		n := len(req.Entries)
		for k := n - 1; k >= 0; k-- {
			req.Entries = append(req.Entries, req.Entries[k])
		}
		req.Entries = req.Entries[n/2:]
		body, _ = json.Marshal(req)
		check(fmt.Sprintf("spec %d shuffled", i), body)
	}
}

// bigJSON renders an n×n diagonal matrix as a predict body.
func bigJSON(n int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"rows":%d,"cols":%d,"entries":[`, n, n)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "[%d,%d,1]", i, i)
	}
	b.WriteString("]}")
	return b.Bytes()
}

// bigMM is the same matrix as Matrix Market text.
func bigMM(n int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", n, n, n)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "%d %d 1\n", i, i)
	}
	return b.Bytes()
}

// TestDecodeContextCancelBothEncodings: a request whose deadline has
// passed abandons a long body in either encoding, with one status.
func TestDecodeContextCancelBothEncodings(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 3 * sparse.CtxCheckEvery
	var status [2]int
	for i, body := range [][]byte{bigMM(n), bigJSON(n)} {
		_, err := DecodeMatrix(ctx, body, "", sparse.DefaultLimits())
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("body %d: err = %v, want context.Canceled", i, err)
		}
		status[i] = IngestStatus(err)
	}
	if status[0] != status[1] {
		t.Fatalf("cancelled Matrix Market parse is a %d, cancelled JSON parse a %d", status[0], status[1])
	}
}

// TestDecodeJSONMaxNNZRefusedWhileScanning: a body one triplet over the
// cap is a 413 at that triplet, and what was allocated on the way is
// the capped entry slice, not the body's worth of triplets.
func TestDecodeJSONMaxNNZRefusedWhileScanning(t *testing.T) {
	lim := sparse.Limits{MaxRows: 1 << 20, MaxCols: 1 << 20, MaxNNZ: 1000}
	exact, over := bigJSON(lim.MaxNNZ), bigJSON(lim.MaxNNZ+1)
	if _, err := DecodeMatrix(context.Background(), exact, "", lim); err != nil {
		t.Fatalf("body at the cap refused: %v", err)
	}
	_, err := DecodeMatrix(context.Background(), over, "", lim)
	if !errors.Is(err, sparse.ErrTooLarge) || IngestStatus(err) != http.StatusRequestEntityTooLarge {
		t.Fatalf("body over the cap: %v", err)
	}

	// What a refusal allocates follows the cap, not the body: one
	// triplet over and two hundred thousand over cost the same.
	lim.MaxNNZ = 16
	refuse := func(body []byte) func() {
		return func() {
			if _, err := DecodeMatrix(context.Background(), body, "", lim); !errors.Is(err, sparse.ErrTooLarge) {
				t.Fatal(err)
			}
		}
	}
	just, far := refuse(bigJSON(lim.MaxNNZ+1)), refuse(bigJSON(200_000))
	if raceEnabled {
		just()
		far()
		return
	}
	if a, b := testing.AllocsPerRun(5, just), testing.AllocsPerRun(5, far); b > a {
		t.Errorf("%v allocations to refuse a body far over the cap, %v just over it", b, a)
	}
	if a, b := allocBytesPerRun(5, just), allocBytesPerRun(5, far); b > a+512 {
		t.Errorf("%d bytes allocated to refuse a body far over the cap, %d just over it", b, a)
	}
}

// allocBytesPerRun is testing.AllocsPerRun for bytes.
func allocBytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestDecodeJSONEntryHintIsBounded: the entry slice is sized from the
// bytes that remain, so a body that opens a million brackets after one
// good triplet cannot make the scanner allocate a million entries.
func TestDecodeJSONEntryHintIsBounded(t *testing.T) {
	body := []byte(`{"rows":3,"cols":3,"entries":[[0,0,1],` + strings.Repeat("[", 1<<20))
	// 24 bytes an entry, at most one entry per 8 bytes of body: three
	// times the body, and the allocator's rounding.
	got := allocBytesPerRun(3, func() {
		if _, err := DecodeMatrix(context.Background(), body, "", sparse.Limits{}); err == nil {
			t.Fatal("accepted")
		}
	})
	if most := uint64(3*len(body) + len(body)/8); got > most {
		t.Errorf("allocated %d bytes for a %d-byte body, want at most %d", got, len(body), most)
	}
}

// TestScanMatrixMarketDeclaredNNZIsNotAllocated: a 77-byte Matrix
// Market body that declares sixteen million nonzeros is a 400 with the
// truncation message, and refusing it allocates under a megabyte:
// nothing is sized from the declared count, which would be 24 MiB of
// entries, and as many map slots again under DupReject.
func TestScanMatrixMarketDeclaredNNZIsNotAllocated(t *testing.T) {
	body := []byte("%%MatrixMarket matrix coordinate real general\n4000000 4000000 16000000\n1 1 1\n")
	const msg = "parsing Matrix Market body: sparse: malformed input: stream truncated: got 1 of 16000000 declared entries"
	reject := sparse.DefaultLimits()
	reject.Duplicates = sparse.DupReject
	for _, lim := range []sparse.Limits{sparse.DefaultLimits(), reject} {
		scan := func() {
			_, err := ScanMatrix(context.Background(), body, "text/matrix-market", lim)
			if err == nil || err.Error() != msg || IngestStatus(err) != http.StatusBadRequest {
				t.Fatalf("err = %v (status %d), want %q (400)", err, IngestStatus(err), msg)
			}
		}
		scan()
		if raceEnabled {
			continue
		}
		if got := allocBytesPerRun(3, scan); got >= 1<<20 {
			t.Errorf("duplicates %v: %d bytes allocated to refuse a %d-byte body", lim.Duplicates, got, len(body))
		}
	}
}

// TestReadBody: one buffer when Content-Length tells the truth, the
// same answers as before when it is absent or lies — and the same again
// read twice into one reused buffer, which the second read does not
// replace, and into one that already has more room than max.
func TestReadBody(t *testing.T) {
	const max = 64
	payload := bytes.Repeat([]byte("x"), 40)
	cases := []struct {
		name     string
		body     []byte
		declared int64
		want     int // bytes read; -1 = ErrTooLarge
		oneAlloc bool
	}{
		{"exact", payload, 40, 40, true},
		{"absent", payload, -1, 40, false},
		{"zero declared", payload, 0, 40, false},
		{"short of declared", payload, 50, 40, true},
		{"longer than declared", payload, 10, 40, false},
		{"at the cap", bytes.Repeat([]byte("x"), max), max, max, true},
		{"oversize, declared", bytes.Repeat([]byte("x"), max+1), max + 1, -1, false},
		{"oversize, undeclared", bytes.Repeat([]byte("x"), 3*max), -1, -1, false},
		{"oversize, declared small", bytes.Repeat([]byte("x"), 3*max), 8, -1, false},
		{"empty", nil, 0, 0, false},
	}
	var reused []byte
	roomy := make([]byte, 0, 4*max)
	for _, tc := range cases {
		request := func() *http.Request {
			// OneByteReader: a body that arrives in pieces, as off a socket.
			r := httptest.NewRequest("POST", "/v1/predict", iotest.OneByteReader(bytes.NewReader(tc.body)))
			r.ContentLength = tc.declared
			return r
		}
		check := func(how string, data []byte, err error) {
			t.Helper()
			switch {
			case tc.want < 0:
				if !errors.Is(err, sparse.ErrTooLarge) {
					t.Errorf("%s, %s: err = %v, want ErrTooLarge", tc.name, how, err)
				}
			case err != nil:
				t.Errorf("%s, %s: %v", tc.name, how, err)
			case !bytes.Equal(data, tc.body):
				t.Errorf("%s, %s: read %d bytes, want %d", tc.name, how, len(data), tc.want)
			}
		}
		data, err := ReadBody(request(), max)
		check("fresh", data, err)
		if err == nil && tc.oneAlloc && int64(cap(data)) >= 2*(tc.declared+bytes.MinRead) { // growing doubles
			t.Errorf("%s: buffer of %d bytes for a declared %d: it grew", tc.name, cap(data), tc.declared)
		}
		for pass := 1; pass <= 2; pass++ {
			first := reused
			reused, err = readBody(request(), max, reused)
			check(fmt.Sprintf("reused, pass %d", pass), reused, err)
			if pass == 2 && cap(first) > 0 && &first[:1][0] != &reused[:1][0] {
				t.Errorf("%s: the second read into a buffer of %d bytes replaced it", tc.name, cap(first))
			}
		}
		data, err = readBody(request(), max, roomy)
		check("more room than max", data, err)
	}
	r := httptest.NewRequest("POST", "/v1/predict", iotest.ErrReader(io.ErrUnexpectedEOF))
	if _, err := ReadBody(r, max); !errors.Is(err, io.ErrUnexpectedEOF) || IngestStatus(err) != http.StatusBadRequest {
		t.Errorf("failing body: err = %v", err)
	}
}
