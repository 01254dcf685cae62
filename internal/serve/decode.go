package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

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
// after the closing brace are not examined. The body is scanned once,
// by hand, straight into the []sparse.Entry the matrix is built from:
// parse comes before the cache, so every request pays for it, hits
// included, and reflection through [][3]float64 cost four times the
// forward pass. decode_test.go keeps the encoding/json decoder as the
// reference this one is fuzzed against.

// ReadBody reads a request body of at most max bytes. A Content-Length
// that fits sizes the buffer once; a body that overruns max (or its own
// declared length, then max) is sparse.ErrTooLarge all the same.
func ReadBody(r *http.Request, max int64) ([]byte, error) {
	var buf bytes.Buffer
	if r.ContentLength > 0 && r.ContentLength <= max {
		// ReadFrom wants MinRead spare bytes to meet EOF without growing.
		buf.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(r.Body, max+1)); err != nil {
		return nil, fmt.Errorf("reading body: %w", err)
	}
	if int64(buf.Len()) > max {
		return nil, fmt.Errorf("%w: body exceeds %d bytes", sparse.ErrTooLarge, max)
	}
	return buf.Bytes(), nil
}

// DecodeMatrix decodes a request body (already read into memory) as
// JSON COO triplets or a Matrix Market document, bounded by lim. Every
// failure wraps one of the typed sparse ingestion errors (or reads as
// plain malformation) for IngestStatus to map onto 400/413/422. It is
// shared between the replica's predict handler and the cluster router,
// which must parse the matrix anyway to compute the shard fingerprint.
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
	if strings.Contains(contentType, "matrix-market") || bytes.HasPrefix(bytes.TrimSpace(data), []byte("%%MatrixMarket")) {
		m, err := sparse.ReadMatrixMarketLimits(ctx, bytes.NewReader(data), lim)
		if err != nil {
			return nil, 0, fmt.Errorf("parsing Matrix Market body: %w", err)
		}
		return m, 0, nil
	}
	s := bodyScanner{data: data}
	req, err := s.request(ctx, lim.MaxNNZ)
	if err != nil {
		return nil, 0, fmt.Errorf("parsing JSON body: %w", err)
	}
	// The JSON path honours the same resource budget as the Matrix
	// Market reader (MaxNNZ was enforced entry by entry).
	if lim.MaxRows > 0 && req.rows > lim.MaxRows {
		return nil, 0, fmt.Errorf("%w: %d rows exceeds cap %d", sparse.ErrTooLarge, req.rows, lim.MaxRows)
	}
	if lim.MaxCols > 0 && req.cols > lim.MaxCols {
		return nil, 0, fmt.Errorf("%w: %d cols exceeds cap %d", sparse.ErrTooLarge, req.cols, lim.MaxCols)
	}
	m, err := sparse.NewCOOOwned(req.rows, req.cols, req.entries)
	if err != nil {
		return nil, 0, fmt.Errorf("building matrix: %w", err)
	}
	sec := req.spmvSeconds
	if sec < 0 || sec > 1e9 { // negative or absurd; the grammar has no NaN
		sec = 0
	}
	return m, sec, nil
}

// request is a scanned JSON predict body. spmvSeconds optionally
// reports how long the client's own SpMV took for this pattern in its
// current format — closing the feedback loop with a measured timing
// instead of the server's cachesim estimate; prediction ignores it.
type request struct {
	rows, cols  int
	entries     []sparse.Entry
	spmvSeconds float64
}

// bodyScanner is a cursor over one JSON predict body.
type bodyScanner struct {
	data []byte
	pos  int
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

func (s *bodyScanner) request(ctx context.Context, maxNNZ int) (request, error) {
	var req request
	if err := s.expect('{', "the request object"); err != nil {
		return req, err
	}
	if s.peek() == '}' {
		s.pos++
		return req, nil
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
			return req, err
		}
		end := bytes.IndexByte(s.data[s.pos:], '"')
		if end < 0 {
			return req, s.errorf("unterminated field name")
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
			return req, s.errorf("unknown field %q", name)
		}
		if seen&field != 0 {
			return req, s.errorf("field %q given twice", s.data[s.pos:s.pos+end])
		}
		seen |= field
		s.pos += end + 1
		if err := s.expect(':', "a field"); err != nil {
			return req, err
		}
		var err error
		switch {
		case s.null():
		case field == fRows:
			req.rows, err = s.dimension()
		case field == fCols:
			req.cols, err = s.dimension()
		case field == fEntries:
			req.entries, err = s.entries(ctx, maxNNZ)
		case field == fSeconds:
			var n number
			if n, err = s.number(); err == nil {
				req.spmvSeconds, err = s.float(n)
			}
		}
		if err != nil {
			return req, err
		}
		if s.peek() == ',' {
			s.pos++
			continue
		}
		return req, s.expect('}', "the request object")
	}
}

// entries scans the triplet array under the cursor into a slice sized
// once. The size comes from the bytes that remain — no triplet is
// shorter than "[0,0,0]," and each opens one bracket — and never from
// beyond maxNNZ, so the allocation is bounded by the smaller of three
// times the body and the cap, and a body one triplet over the cap is
// refused at that triplet, not after it has all been stored.
func (s *bodyScanner) entries(ctx context.Context, maxNNZ int) ([]sparse.Entry, error) {
	if err := s.expect('[', "entries"); err != nil {
		return nil, err
	}
	if s.peek() == ']' {
		s.pos++
		return nil, nil
	}
	rest := s.data[s.pos:]
	hint := min(len(rest)/len("[0,0,0],")+1, bytes.Count(rest, []byte{'['}))
	if maxNNZ > 0 {
		hint = min(hint, maxNNZ)
	}
	es := make([]sparse.Entry, 0, hint)
	for {
		if maxNNZ > 0 && len(es) == maxNNZ {
			return nil, fmt.Errorf("%w: more than %d entries", sparse.ErrTooLarge, maxNNZ)
		}
		if len(es) > 0 && len(es)%sparse.CtxCheckEvery == 0 {
			if err := sparse.ParseCheckpoint(ctx); err != nil {
				return nil, err
			}
		}
		e, err := s.triplet()
		if err != nil {
			return nil, err
		}
		es = append(es, e)
		if s.peek() == ',' {
			s.pos++
			continue
		}
		return es, s.expect(']', "entries")
	}
}

// triplet scans one [row, col, value].
func (s *bodyScanner) triplet() (e sparse.Entry, err error) {
	if err = s.expect('[', "a triplet"); err != nil {
		return e, err
	}
	if e.Row, err = s.coordinate(); err != nil {
		return e, err
	}
	if err = s.expect(',', "a triplet"); err != nil {
		return e, err
	}
	if e.Col, err = s.coordinate(); err != nil {
		return e, err
	}
	if err = s.expect(',', "a triplet"); err != nil {
		return e, err
	}
	v, err := s.number()
	if err != nil {
		return e, err
	}
	if e.Val, err = s.float(v); err != nil {
		return e, err
	}
	return e, s.expect(']', "a triplet")
}

// number is one token of the JSON number grammar.
type number struct {
	text    []byte
	mag     uint64 // the digits' value, when small
	neg     bool
	integer bool // no fraction, no exponent
	small   bool // integer of at most 18 digits: mag is exact and fits an int
}

// number scans the token under the cursor. What may follow a number is
// the caller's business: "01", "1.5.3" and "0x10" stop after a valid
// prefix, on a byte no caller accepts.
func (s *bodyScanner) number() (number, error) {
	s.peek()
	d, i := s.data, s.pos
	var n number
	if i < len(d) && d[i] == '-' {
		n.neg = true
		i++
	}
	first := i
	for ; i < len(d) && d[i]-'0' <= 9; i++ {
		n.mag = n.mag*10 + uint64(d[i]-'0')
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
		}
		if i == frac {
			return n, s.errorf("not a JSON number: no digit after the point")
		}
	}
	if i < len(d) && d[i]|0x20 == 'e' {
		n.integer = false
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
	n.small = n.integer && i-first <= 18
	n.text = d[s.pos:i]
	s.pos = i
	return n, nil
}

// float is the token's float64, exactly as strconv.ParseFloat reads it;
// a token too large for one is malformed.
func (s *bodyScanner) float(n number) (float64, error) {
	if n.small && n.mag < 1<<53 {
		f := float64(n.mag)
		if n.neg {
			f = -f // "-0" is negative zero, as ParseFloat has it
		}
		return f, nil
	}
	f, err := strconv.ParseFloat(string(n.text), 64)
	if err != nil {
		return 0, s.errorf("number %s does not fit a float64", n.text)
	}
	return f, nil
}

// coordinate scans a row or column index. Digits alone — what every
// client sends — never reach ParseFloat.
func (s *bodyScanner) coordinate() (int, error) {
	n, err := s.number()
	if err != nil {
		return 0, err
	}
	if n.small {
		if n.neg {
			return -int(n.mag), nil
		}
		return int(n.mag), nil
	}
	f, err := s.float(n)
	if err != nil {
		return 0, err
	}
	if f != math.Trunc(f) || math.Abs(f) > 1<<62 {
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
