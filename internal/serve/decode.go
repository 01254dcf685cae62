package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/sparse"
)

// The JSON body of POST /v1/predict is one object with at most these
// four fields, each at most once, spelled exactly so:
//
//	{"rows":R, "cols":C, "entries":[[r,c,v],…], "spmv_seconds":S}
//
// R and C are integers without fraction or exponent; r, c, v and S are
// tokens of the JSON number grammar (r and c must denote integers: 2,
// 2.0 and 2e0 are the same coordinate); every triplet has exactly three
// numbers; null stands for an absent field and nowhere else. Bytes
// after the closing brace are not examined. Dimensions and coordinates
// past int32 are refused (413): a COO cannot index them. The body is
// scanned once, by hand: the scan comes before the cache, so every
// request pays for it, hits included, and it does only what a
// prediction needs — validate the grammar, keep the coordinates, hash
// them — leaving every value as text (see Scanned). The serving path
// goes on with the sparse.Pattern and converts no value on any request;
// DecodeMatrix is for callers that want the numbers. decode_test.go
// keeps the encoding/json decoder as the reference this one is fuzzed
// against.

// ReadBody reads a request body of at most max bytes. A Content-Length
// that fits sizes the buffer once; a body that overruns max (or its own
// declared length, then max) is sparse.ErrTooLarge all the same.
func ReadBody(r *http.Request, max int64) ([]byte, error) {
	data, err := readBody(r, max, nil)
	if err != nil {
		return nil, err
	}
	return data, nil
}

// readBody is ReadBody into buf's array, which it replaces by a larger
// one only when the body does not fit. It returns what it read and,
// error or not, the array it read into.
func readBody(r *http.Request, max int64, buf []byte) ([]byte, error) {
	buf = buf[:0]
	if r.ContentLength > 0 && r.ContentLength <= max {
		// One spare byte meets EOF without growing.
		buf = slices.Grow(buf, int(r.ContentLength)+1)
	}
	lr := io.LimitedReader{R: r.Body, N: max + 1}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, bytes.MinRead)
		}
		n, err := lr.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return buf, fmt.Errorf("reading body: %w", err)
		}
	}
	if int64(len(buf)) > max {
		return buf, fmt.Errorf("%w: body exceeds %d bytes", sparse.ErrTooLarge, max)
	}
	return buf, nil
}

// DecodeMatrix decodes a request body (already read into memory) as
// JSON COO triplets or a Matrix Market document, bounded by lim: scan,
// then convert the values. No request is served through it — a
// prediction needs the pattern only — it is for whoever goes on to
// multiply: the benchmark's oracle and replayer, the differential
// tests. Every failure wraps one of the typed sparse ingestion errors
// (or reads as plain malformation) for IngestStatus to map onto
// 400/413/422.
func DecodeMatrix(ctx context.Context, data []byte, contentType string, lim sparse.Limits) (*sparse.COO, error) {
	m, _, err := DecodeMatrixMeta(ctx, data, contentType, lim)
	return m, err
}

// DecodeMatrixMeta is DecodeMatrix plus the request's feedback
// metadata: the client-reported SpMV seconds (0 when absent; Matrix
// Market bodies cannot carry one). Non-finite or negative timings are
// discarded rather than rejected — the matrix, not the telemetry, is
// the request.
func DecodeMatrixMeta(ctx context.Context, data []byte, contentType string, lim sparse.Limits) (*sparse.COO, float64, error) {
	sc, err := ScanMatrix(ctx, data, contentType, lim)
	if err != nil {
		return nil, 0, err
	}
	m, err := sc.Matrix()
	return m, sc.SpmvSeconds(), err
}

// Scanned is a request body after the one pass every request pays for:
// accepted or refused for good, and fingerprinted. The prediction cache
// is asked with Fingerprint; an answer that has to be computed, or
// logged with its pattern, takes Pattern; nothing that serves a request
// calls Matrix. The body must not be written to while the Scanned is in
// use.
//
// A replica reads and scans every request into a Scanned from a pool
// (scanBody), and the next request reads and scans into the same body
// buffer and coordinate arrays once the handler has put it back; a hit
// therefore allocates nothing that grows with its body. Nothing that
// outlives the handler — a miss's job, the pattern the feedback log
// keeps, the shadow mirror, an abandoned forward pass — may alias that
// memory, so Pattern copies the coordinates out and Matrix takes them
// over, leaving the Scanned without them. A Scanned from ScanMatrix is
// never reused.
//
// A JSON body whose triplets arrive strictly row-major with no zero
// value — canonical COO, what every writer of the format emits — is
// "streamed": coordinates kept as int32 while it is validated and
// hashed as they stand once it is, each value kept as the span of its
// token and not converted, so no request runs strconv.ParseFloat over
// it and none builds a matrix. Any other JSON body (unsorted, a position
// twice, an explicit zero) is just as correct and costs what it always
// did: which positions it has depends on which entries survive summing,
// so the matrix is built before the cache is asked. Matrix Market
// bodies are built before the cache too, by
// sparse.ReadMatrixMarketLimits.
type Scanned struct {
	fp          uint64
	spmvSeconds float64
	m           *sparse.COO // nil while a streamed body's values are still text

	// What a streamed body's Pattern and Matrix are made from.
	rows, cols int
	data       []byte
	ents       triplets

	body []byte // the buffer scanBody reads into, kept for the next request
}

// scannedPool holds the Scanneds replicas read and scan requests into
// (scanBody); the handler puts each back when it returns.
var scannedPool = sync.Pool{New: func() any { return new(Scanned) }}

// Fingerprint is sparse.Fingerprint of the matrix the body denotes.
func (sc *Scanned) Fingerprint() uint64 { return sc.fp }

// SpmvSeconds is the client-reported SpMV time, 0 when absent or absurd.
func (sc *Scanned) SpmvSeconds() float64 { return sc.spmvSeconds }

// Streamed reports whether the values are still text: the body was
// canonical JSON and nothing has called Matrix.
func (sc *Scanned) Streamed() bool { return sc.m == nil }

// Pattern returns the sparsity pattern of the matrix the body denotes:
// a streamed body copies the coordinates as it scanned them into one
// array of its own and converts nothing, a built one lends its
// matrix's. It holds no reference to the body or to memory the Scanned
// reuses.
func (sc *Scanned) Pattern() (*sparse.Pattern, error) {
	if sc.m != nil {
		return &sc.m.Pattern, nil
	}
	n := len(sc.ents.ri)
	idx := make([]int32, 2*n)
	ri, ci := idx[:n:n], idx[n:]
	copy(ri, sc.ents.ri)
	copy(ci, sc.ents.ci)
	p, err := sparse.NewPattern(sc.rows, sc.cols, ri, ci)
	if err != nil {
		return nil, fmt.Errorf("adopting scanned pattern: %w", err)
	}
	return p, nil
}

// Matrix returns the canonical COO the body denotes, converting a
// streamed body's value tokens on the first call: ParseFloat on the
// recorded spans straight into Vals, coordinates taken over as scanned.
func (sc *Scanned) Matrix() (*sparse.COO, error) {
	if sc.m != nil {
		return sc.m, nil
	}
	vals := make([]float64, len(sc.ents.vals))
	for k := range vals {
		vals[k] = sc.ents.value(sc.data, k)
	}
	m, err := sparse.NewCOOCanonical(sc.rows, sc.cols, sc.ents.ri, sc.ents.ci, vals)
	if err != nil {
		return nil, fmt.Errorf("materialising matrix: %w", err)
	}
	sc.m, sc.data, sc.ents = m, nil, triplets{}
	return m, nil
}

// ScanMatrix validates a request body against the grammar and lim and
// fingerprints it. What it refuses, DecodeMatrix refuses with the same
// error; what it accepts, neither Pattern nor Matrix can refuse.
func ScanMatrix(ctx context.Context, data []byte, contentType string, lim sparse.Limits) (*Scanned, error) {
	sc := new(Scanned)
	if err := sc.scan(ctx, data, contentType, lim); err != nil {
		return nil, err
	}
	return sc, nil
}

// scan is ScanMatrix into sc, recording into the coordinate arrays an
// earlier scan left it. After a refusal sc is good only for scanning
// into again.
func (sc *Scanned) scan(ctx context.Context, data []byte, contentType string, lim sparse.Limits) error {
	t := sc.ents
	*sc = Scanned{body: sc.body, ents: t} // a built body never reads ents
	if strings.Contains(contentType, "matrix-market") || bytes.HasPrefix(bytes.TrimSpace(data), []byte("%%MatrixMarket")) {
		m, err := sparse.ReadMatrixMarketLimits(ctx, bytes.NewReader(data), lim)
		if err != nil {
			return fmt.Errorf("parsing Matrix Market body: %w", err)
		}
		sc.fp, sc.m = sparse.Fingerprint(m), m
		return nil
	}
	s := bodyScanner{data: data, ents: triplets{ri: t.ri[:0], ci: t.ci[:0], vals: t.vals[:0], conv: t.conv[:0], canonical: true, prev: -1}}
	err := s.request(ctx, lim.MaxNNZ)
	sc.rows, sc.cols, sc.spmvSeconds, sc.data, sc.ents = s.rows, s.cols, s.spmvSeconds, data, s.ents
	if err != nil {
		return fmt.Errorf("parsing JSON body: %w", err)
	}
	if sc.spmvSeconds < 0 || sc.spmvSeconds > 1e9 { // negative or absurd; the grammar has no NaN
		sc.spmvSeconds = 0
	}
	// The JSON path honours the same resource budget as the Matrix
	// Market reader (MaxNNZ was enforced entry by entry), and COO's
	// int32 indices whatever the budget says.
	if err := checkSide("rows", sc.rows, lim.MaxRows); err != nil {
		return err
	}
	if err := checkSide("cols", sc.cols, lim.MaxCols); err != nil {
		return err
	}
	ents := &sc.ents
	if ents.misfit != nil {
		return ents.misfit
	}
	if sc.rows <= 0 || sc.cols <= 0 {
		return fmt.Errorf("%w: non-positive dimensions %dx%d", sparse.ErrMalformed, sc.rows, sc.cols)
	}
	if int(ents.maxRow) >= sc.rows || int(ents.maxCol) >= sc.cols {
		for k, r := range ents.ri {
			if c := ents.ci[k]; int(r) >= sc.rows || int(c) >= sc.cols {
				return fmt.Errorf("%w: entry (%d,%d) out of range for %dx%d matrix", sparse.ErrMalformed, r, c, sc.rows, sc.cols)
			}
		}
	}
	if ents.canonical {
		var h sparse.PatternHash
		for k, r := range ents.ri {
			h = h.Add(r, ents.ci[k])
		}
		sc.fp = h.Sum(sc.rows, sc.cols)
		return nil
	}
	es := make([]sparse.Entry, len(ents.ri))
	for k := range es {
		es[k] = sparse.Entry{Row: int(ents.ri[k]), Col: int(ents.ci[k]), Val: ents.value(data, k)}
	}
	m, err := sparse.NewCOOOwned(sc.rows, sc.cols, es)
	if err != nil {
		return fmt.Errorf("building matrix: %w", err)
	}
	sc.m, sc.fp, sc.data = m, sparse.Fingerprint(m), nil
	return nil
}

// checkSide refuses a dimension over its cap (0 = none) or over what an
// int32 index can address.
func checkSide(name string, n, limit int) error {
	if limit <= 0 || limit > math.MaxInt32 {
		limit = math.MaxInt32
	}
	if n > limit {
		return fmt.Errorf("%w: %d %s exceeds cap %d", sparse.ErrTooLarge, n, name, limit)
	}
	return nil
}

// triplets is the entries array as the scanner leaves it: coordinates
// narrowed to the int32 a COO stores, values not yet numbers.
type triplets struct {
	ri, ci []int32
	// vals holds one word a value: offset<<8 | length of a token still
	// to be converted, or index<<8 into conv for one converted while
	// scanning (length 0).
	vals []uint64
	conv []float64

	// The coordinates are the pattern, adopted and hashed as they stand,
	// only while canonical holds: every triplet so far after its
	// predecessor in row-major order (so none twice) and not zero.
	canonical bool
	prev      int64 // row<<32|col of the last triplet, -1 before the first

	maxRow, maxCol int32
	// misfit is the refusal owed to the first coordinate past int32
	// (413, wide) or else to the first negative one (400); it waits for
	// the grammar to be checked to the end, and nothing is recorded once
	// it is set.
	misfit error
	wide   bool
}

// maxSpan is the longest value token kept as text. Without an exponent
// that many bytes cannot overflow a float64 nor round a nonzero digit
// string to zero, so accepting the token unconverted decides nothing
// wrongly; its length also fits the low byte of a vals word.
const maxSpan = 40

// value is the k-th value as a float64. A span was validated against
// the number grammar and is too short to overflow, so its conversion
// cannot fail.
func (t *triplets) value(data []byte, k int) float64 {
	w := t.vals[k]
	n := int(w & 0xFF)
	if n == 0 {
		return t.conv[w>>8]
	}
	off := int(w >> 8)
	f, _ := parseFloat(data[off : off+n])
	return f
}

// bodyScanner is a cursor over one JSON predict body, and what it has
// read so far. spmvSeconds optionally reports how long the client's own
// SpMV took for this pattern in its current format — closing the
// feedback loop with a measured timing instead of the server's
// cost-model estimate; prediction ignores it.
type bodyScanner struct {
	data []byte
	pos  int

	rows, cols  int
	spmvSeconds float64
	ents        triplets
}

func (s *bodyScanner) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: offset %d: %s", sparse.ErrMalformed, s.pos, fmt.Sprintf(format, args...))
}

// peek skips JSON whitespace and returns the byte under the cursor
// without consuming it, 0 at the end of the body.
func (s *bodyScanner) peek() byte {
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// expect consumes the next non-space byte, which must be c.
func (s *bodyScanner) expect(c byte, where string) error {
	if got := s.peek(); got != c {
		if got == 0 {
			return s.errorf("body ends where %s wants %q", where, c)
		}
		return s.errorf("%q where %s wants %q", got, where, c)
	}
	s.pos++
	return nil
}

// null consumes a null literal under the cursor, if there is one.
func (s *bodyScanner) null() bool {
	if s.peek() == 'n' && bytes.HasPrefix(s.data[s.pos:], []byte("null")) {
		s.pos += 4
		return true
	}
	return false
}

// request scans the whole body: the one pass that validates the
// grammar, narrows and hashes every coordinate and notes where every
// value is.
func (s *bodyScanner) request(ctx context.Context, maxNNZ int) error {
	if err := s.expect('{', "the request object"); err != nil {
		return err
	}
	if s.peek() == '}' {
		s.pos++
		return nil
	}
	const (
		fRows = 1 << iota
		fCols
		fEntries
		fSeconds
	)
	seen := 0
	for {
		if err := s.expect('"', "a field name"); err != nil {
			return err
		}
		end := bytes.IndexByte(s.data[s.pos:], '"')
		if end < 0 {
			return s.errorf("unterminated field name")
		}
		// A name with an escape in it ends early here and is unknown,
		// as is one in another case: the four spellings are the grammar.
		var field int
		switch name := s.data[s.pos : s.pos+end]; string(name) {
		case "rows":
			field = fRows
		case "cols":
			field = fCols
		case "entries":
			field = fEntries
		case "spmv_seconds":
			field = fSeconds
		default:
			return s.errorf("unknown field %q", name)
		}
		if seen&field != 0 {
			return s.errorf("field %q given twice", s.data[s.pos:s.pos+end])
		}
		seen |= field
		s.pos += end + 1
		if err := s.expect(':', "a field"); err != nil {
			return err
		}
		var err error
		switch {
		case s.null():
		case field == fRows:
			s.rows, err = s.dimension()
		case field == fCols:
			s.cols, err = s.dimension()
		case field == fEntries:
			err = s.entries(ctx, maxNNZ)
		case field == fSeconds:
			var n number
			if n, err = s.number(); err == nil {
				s.spmvSeconds, err = s.float(n)
			}
		}
		if err != nil {
			return err
		}
		if s.peek() == ',' {
			s.pos++
			continue
		}
		return s.expect('}', "the request object")
	}
}

// entries scans the triplet array under the cursor into slices sized
// once — the scanner's own when they have the room. The size comes from
// the bytes that remain — no triplet is shorter than "[0,0,0]," and each
// opens one bracket — and never from beyond maxNNZ, so an allocation is
// bounded by the smaller of twice the body and the cap, and a body one
// triplet over the cap is refused at that triplet, not after it has all
// been stored.
func (s *bodyScanner) entries(ctx context.Context, maxNNZ int) error {
	if err := s.expect('[', "entries"); err != nil {
		return err
	}
	if s.peek() == ']' {
		s.pos++
		return nil
	}
	rest := s.data[s.pos:]
	hint := min(len(rest)/len("[0,0,0],")+1, bytes.Count(rest, []byte{'['}))
	if maxNNZ > 0 {
		hint = min(hint, maxNNZ)
	}
	// The triplets are recorded into a local copy, written back around
	// the token path and at the end (a refusal leaves s.ents stale, and
	// nothing reads it then): stores through s would each pay a write
	// barrier.
	t := s.ents
	t.ri, t.ci, t.vals = room(t.ri, hint), room(t.ci, hint), room(t.vals, hint)
	for n := 0; ; n++ {
		if maxNNZ > 0 && n == maxNNZ {
			return fmt.Errorf("%w: more than %d entries", sparse.ErrTooLarge, maxNNZ)
		}
		if n > 0 && n%sparse.CtxCheckEvery == 0 {
			if err := sparse.ParseCheckpoint(ctx); err != nil {
				return err
			}
		}
		if r, c, val, nonzero, end := plainTriplet(s.data, s.pos); end > 0 && t.misfit == nil {
			t.record(r, c, val, nonzero)
			s.pos = end
		} else {
			s.ents = t
			err := s.triplet()
			t = s.ents
			if err != nil {
				return err
			}
		}
		if s.peek() == ',' {
			s.pos++
			continue
		}
		s.ents = t
		return s.expect(']', "entries")
	}
}

// room returns s emptied, with capacity for n: s's own array when it is
// large enough, else a new one.
func room[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, 0, n)
	}
	return s[:0]
}

// plainTriplet reads d[i:] as one triplet in the shape every encoder
// writes — "[", row, ",", col, ",", value, "]" with no space; row and
// col plain digits, at most 9 of them and no leading zero; the value a
// JSON number without exponent and at most maxSpan bytes long — in one
// pass with no call per token. It returns what add would record for it
// (val is the span word) and the offset past the "]"; end is 0 for
// anything else, which triplet then reads token by token from the same
// first byte, so what it refuses and why is the token path's alone.
func plainTriplet(d []byte, i int) (r, c int32, val uint64, nonzero bool, end int) {
	if i >= len(d) || d[i] != '[' {
		return
	}
	if r, i = plainIndex(d, i+1); i < 0 {
		return
	}
	if c, i = plainIndex(d, i); i < 0 {
		return
	}
	start := i
	if i < len(d) && d[i] == '-' {
		i++
	}
	first := i
	var digits uint64 // the OR of every digit byte
	for ; i < len(d) && d[i]-'0' <= 9; i++ {
		digits |= uint64(d[i])
	}
	if i == first || (d[first] == '0' && i-first > 1) {
		return
	}
	if i < len(d) && d[i] == '.' {
		i++
		frac := i
		for ; i+8 <= len(d); i += 8 {
			x := binary.LittleEndian.Uint64(d[i:])
			if !eightDigits(x) {
				break
			}
			digits |= x
		}
		for ; i < len(d) && d[i]-'0' <= 9; i++ {
			digits |= uint64(d[i])
		}
		if i == frac {
			return
		}
	}
	if i-start > maxSpan || i >= len(d) || d[i] != ']' {
		return
	}
	return r, c, uint64(start)<<8 | uint64(i-start), digits&0x0F0F0F0F0F0F0F0F != 0, i + 1
}

// plainIndex reads a coordinate of plainTriplet's shape and the comma
// after it, returning the offset past the comma, -1 if it is not one.
func plainIndex(d []byte, i int) (int32, int) {
	first := i
	var v int32
	for ; i < len(d) && d[i]-'0' <= 9; i++ {
		v = v*10 + int32(d[i]-'0')
	}
	if n := i - first; uint(n-1) > 8 || (n > 1 && d[first] == '0') || i >= len(d) || d[i] != ',' {
		return 0, -1
	}
	return v, i + 1
}

// eightDigits reports whether all eight bytes of x are ASCII digits:
// each high nibble is 3, and still is with 6 added (a byte that carries
// into the next has a high nibble of F and fails on its own).
func eightDigits(x uint64) bool {
	const hi = 0xF0F0F0F0F0F0F0F0
	return x&hi|(x+0x0606060606060606)&hi>>4 == 0x3333333333333333
}

// triplet scans one [row, col, value] token by token: whatever
// plainTriplet does not read.
func (s *bodyScanner) triplet() error {
	if err := s.expect('[', "a triplet"); err != nil {
		return err
	}
	row, err := s.coordinate()
	if err != nil {
		return err
	}
	if err = s.expect(',', "a triplet"); err != nil {
		return err
	}
	col, err := s.coordinate()
	if err != nil {
		return err
	}
	if err = s.expect(',', "a triplet"); err != nil {
		return err
	}
	v, err := s.number()
	if err != nil {
		return err
	}
	if err = s.add(row, col, v); err != nil {
		return err
	}
	return s.expect(']', "a triplet")
}

// add records the triplet the cursor has just left; v is its value
// token, the last thing scanned.
func (s *bodyScanner) add(row, col int, v number) error {
	t := &s.ents
	if uint64(row) > math.MaxInt32 || uint64(col) > math.MaxInt32 {
		switch wide := row > math.MaxInt32 || col > math.MaxInt32; {
		case wide && !t.wide:
			t.wide = true
			t.misfit = fmt.Errorf("%w: entry (%d,%d) does not fit 32-bit indices", sparse.ErrTooLarge, row, col)
		case t.misfit == nil:
			t.misfit = fmt.Errorf("%w: entry (%d,%d) has a negative index", sparse.ErrMalformed, row, col)
		}
	}
	if t.misfit != nil {
		// The value is still held to the grammar: one that overflows is
		// a 400 now, ahead of the refusal that waits.
		_, err := s.float(v)
		return err
	}
	if !v.exp && len(v.text) <= maxSpan {
		off := s.pos - len(v.text)
		t.record(int32(row), int32(col), uint64(off)<<8|uint64(len(v.text)), v.nonzero)
		return nil
	}
	// An exponent or a very long mantissa can overflow (refused here,
	// as it always was) or underflow to a zero no digit shows.
	f, err := s.float(v)
	if err != nil {
		return err
	}
	t.record(int32(row), int32(col), uint64(len(t.conv))<<8, f != 0)
	t.conv = append(t.conv, f)
	return nil
}

// record appends one triplet whose coordinates fit and whose value is
// the vals word val, and keeps the running maxima and canonical flag.
// It is small enough to inline into entries; the hash, which is not,
// is taken over ri and ci once the scan has ended.
func (t *triplets) record(r, c int32, val uint64, nonzero bool) {
	pos := int64(r)<<32 | int64(c)
	if pos <= t.prev || !nonzero {
		t.canonical = false
	}
	t.prev = pos
	t.maxRow, t.maxCol = max(t.maxRow, r), max(t.maxCol, c)
	t.ri, t.ci, t.vals = append(t.ri, r), append(t.ci, c), append(t.vals, val)
}

// number is one token of the JSON number grammar.
type number struct {
	text    []byte
	integer bool // no fraction, no exponent
	exp     bool // has an exponent
	nonzero bool // some digit before the exponent is not 0
}

// number scans the token under the cursor. What may follow a number is
// the caller's business: "01", "1.5.3" and "0x10" stop after a valid
// prefix, on a byte no caller accepts.
func (s *bodyScanner) number() (number, error) {
	s.peek()
	d, i := s.data, s.pos
	var n number
	if i < len(d) && d[i] == '-' {
		i++
	}
	first := i
	var digits byte // the OR of every mantissa digit
	for ; i < len(d) && d[i]-'0' <= 9; i++ {
		digits |= d[i]
	}
	if i == first || (d[first] == '0' && i-first > 1) {
		return n, s.errorf("not a JSON number")
	}
	n.integer = true
	if i < len(d) && d[i] == '.' {
		n.integer = false
		i++
		frac := i
		for ; i < len(d) && d[i]-'0' <= 9; i++ {
			digits |= d[i]
		}
		if i == frac {
			return n, s.errorf("not a JSON number: no digit after the point")
		}
	}
	if i < len(d) && d[i]|0x20 == 'e' {
		n.integer, n.exp = false, true
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		exp := i
		for ; i < len(d) && d[i]-'0' <= 9; i++ {
		}
		if i == exp {
			return n, s.errorf("not a JSON number: no digit in the exponent")
		}
	}
	n.nonzero = digits&0x0F != 0
	n.text = d[s.pos:i]
	s.pos = i
	return n, nil
}

// float is the token's float64; a token too large for one is malformed.
func (s *bodyScanner) float(n number) (float64, error) {
	f, err := parseFloat(n.text)
	if err != nil {
		return 0, s.errorf("number %s does not fit a float64", n.text)
	}
	return f, nil
}

// parseFloat is strconv.ParseFloat on a token of the JSON number
// grammar, bit for bit. Digits alone, as a pattern-only client writes
// every value, are exact below 10^15 and converted where they stand.
func parseFloat(text []byte) (float64, error) {
	if len(text) > 15 {
		return strconv.ParseFloat(string(text), 64)
	}
	digits, neg := text, text[0] == '-'
	if neg {
		digits = text[1:]
	}
	var mag uint64
	for _, c := range digits {
		if c-'0' > 9 {
			return strconv.ParseFloat(string(text), 64)
		}
		mag = mag*10 + uint64(c-'0')
	}
	if neg {
		return -float64(mag), nil // "-0" is negative zero, as ParseFloat has it
	}
	return float64(mag), nil
}

// coordinate scans a row or column index. Digits alone — what every
// client sends — are read where they stand; any other spelling of an
// integer ("2.0", "2e0", "-1") goes by way of its float64, as
// encoding/json into a float64 field took it.
func (s *bodyScanner) coordinate() (int, error) {
	s.peek()
	d, i := s.data, s.pos
	var v int
	for ; i < len(d) && d[i]-'0' <= 9; i++ {
		v = v*10 + int(d[i]-'0')
	}
	if n := i - s.pos; n == 1 || (n > 1 && n <= 18 && d[s.pos] != '0') {
		if i == len(d) || (d[i] != '.' && d[i]|0x20 != 'e') {
			s.pos = i
			return v, nil
		}
	}
	n, err := s.number()
	if err != nil {
		return 0, err
	}
	f, err := s.float(n)
	if err != nil {
		return 0, err
	}
	// Below 2^63 int(f) is exact, and add refuses it as too wide (413).
	if f != math.Trunc(f) || math.Abs(f) >= 1<<63 {
		return 0, s.errorf("coordinate %s is not an integer index", n.text)
	}
	return int(f), nil
}

// dimension scans rows or cols: an integer written without fraction or
// exponent.
func (s *bodyScanner) dimension() (int, error) {
	n, err := s.number()
	if err != nil {
		return 0, err
	}
	if !n.integer {
		return 0, s.errorf("dimension %s is not written as an integer", n.text)
	}
	v, err := strconv.ParseInt(string(n.text), 10, 64)
	if err != nil {
		return 0, s.errorf("dimension %s does not fit an integer", n.text)
	}
	return int(v), nil
}
