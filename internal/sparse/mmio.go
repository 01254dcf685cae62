package sparse

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/faultinject"
)

// MatrixMarket I/O for the "coordinate" layout, the interchange format
// of the SuiteSparse collection the paper trains on. Supported
// qualifiers: real/integer/pattern values, general/symmetric/
// skew-symmetric storage. Pattern entries read as value 1; symmetric
// files are expanded to full storage on read.
//
// Two readers share one parser: ReadMatrixMarket for trusted local
// files (permissive limits) and ReadMatrixMarketLimits for untrusted
// streams (caller-set resource budget, context cancellation, typed
// error taxonomy — see Limits, ErrMalformed, ErrTooLarge,
// ErrUnsupported).

const (
	// minEntryBytes is the shortest Matrix Market entry line, "1 1\n".
	minEntryBytes = 4
	// streamEntryHint is the entry capacity a stream of unknown length
	// starts with; more arrives by append as lines do.
	streamEntryHint = 4096
)

// CtxCheckEvery is how many items (Matrix Market data lines, JSON
// triplets) an ingestion loop reads between calls to ParseCheckpoint.
const CtxCheckEvery = 4096

// ParseCheckpoint is what every ingestion loop over untrusted input
// calls once per CtxCheckEvery items, so that a request deadline and
// the sparse.parse.stall fault point reach every body encoding alike.
func ParseCheckpoint(ctx context.Context) error {
	if err := faultinject.InjectCtx(ctx, faultinject.PointParseStall); err != nil {
		return err
	}
	return ctx.Err()
}

// ReadMatrixMarket parses a MatrixMarket coordinate stream into
// canonical COO with the permissive Unlimited budget. The stream must
// still be internally consistent: an entry count that disagrees with
// the declared size line is rejected.
func ReadMatrixMarket(r io.Reader) (*COO, error) {
	return ReadMatrixMarketLimits(context.Background(), r, Unlimited())
}

// ReadMatrixMarketLimits is the resource-governed MatrixMarket reader
// for untrusted input. It enforces the given Limits, polls ctx between
// line batches so a wedged or malicious stream can be abandoned, and
// classifies every failure as ErrMalformed, ErrTooLarge or
// ErrUnsupported (matchable with errors.Is).
func ReadMatrixMarketLimits(ctx context.Context, r io.Reader, lim Limits) (*COO, error) {
	lim = lim.withDefaults()
	// What the input can hold bounds every up-front allocation: a reader
	// that knows its length (a request body) fits in a buffer one byte
	// longer, and holds at most one entry line per minEntryBytes of it.
	// Declared sizes are the writer's claim, not a measurement.
	avail := -1
	if lr, ok := r.(interface{ Len() int }); ok {
		avail = lr.Len()
	}
	sc := bufio.NewScanner(r)
	buf := minInt(64<<10, lim.MaxLineBytes)
	if avail >= 0 {
		buf = minInt(buf, avail+1)
	}
	sc.Buffer(make([]byte, buf), lim.MaxLineBytes)
	// scanErr converts the scanner's end state into a typed error: the
	// token-limit path surfaces as ErrTooLarge instead of the generic
	// bufio failure.
	scanErr := func() error {
		switch err := sc.Err(); {
		case err == nil:
			return nil
		case errors.Is(err, bufio.ErrTooLong):
			return fmt.Errorf("%w: line exceeds %d bytes", ErrTooLarge, lim.MaxLineBytes)
		default:
			return fmt.Errorf("%w: reading stream: %v", ErrMalformed, err)
		}
	}

	if !sc.Scan() {
		if err := scanErr(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: empty MatrixMarket stream", ErrMalformed)
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("%w: bad MatrixMarket banner %q", ErrMalformed, sc.Text())
	}
	layout, valType, symmetry := header[2], header[3], header[4]
	if layout != "coordinate" {
		return nil, fmt.Errorf("%w: MatrixMarket layout %q (only coordinate)", ErrUnsupported, layout)
	}
	switch valType {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("%w: MatrixMarket value type %q", ErrUnsupported, valType)
	}
	switch symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("%w: MatrixMarket symmetry %q", ErrUnsupported, symmetry)
	}

	// Skip comments, read the size line.
	var rows, cols, nnz int
	sized := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("%w: bad MatrixMarket size line %q", ErrMalformed, line)
		}
		var err error
		if rows, err = parseDim(f[0]); err == nil {
			if cols, err = parseDim(f[1]); err == nil {
				nnz, err = parseDim(f[2])
			}
		}
		if err != nil {
			return nil, fmt.Errorf("%w: bad MatrixMarket size line %q: %v", ErrMalformed, line, err)
		}
		sized = true
		break
	}
	if !sized {
		if err := scanErr(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: MatrixMarket stream has no size line", ErrMalformed)
	}
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("%w: bad MatrixMarket dimensions %dx%d", ErrMalformed, rows, cols)
	}
	if rows > lim.MaxRows || cols > lim.MaxCols {
		return nil, fmt.Errorf("%w: %dx%d matrix exceeds %dx%d dimension cap",
			ErrTooLarge, rows, cols, lim.MaxRows, lim.MaxCols)
	}
	if int64(rows) > math.MaxInt64/int64(cols) {
		return nil, fmt.Errorf("%w: rows*cols overflows for %dx%d", ErrTooLarge, rows, cols)
	}
	if nnz > lim.MaxNNZ {
		return nil, fmt.Errorf("%w: %d declared nonzeros exceed cap %d", ErrTooLarge, nnz, lim.MaxNNZ)
	}
	if int64(nnz) > int64(rows)*int64(cols) {
		return nil, fmt.Errorf("%w: %d declared nonzeros for a %dx%d matrix", ErrMalformed, nnz, rows, cols)
	}

	hint := minInt(nnz, 1<<20)
	if avail >= 0 {
		hint = minInt(hint, avail/minEntryBytes+1)
	} else {
		hint = minInt(hint, streamEntryHint)
	}
	entries := make([]Entry, 0, hint)
	var seen map[[2]int32]struct{}
	if lim.Duplicates == DupReject {
		seen = make(map[[2]int32]struct{}, hint)
	}
	read := 0
	sinceCheck := 0
	for sc.Scan() {
		// sc.Bytes and an in-place split: a request pays for this loop
		// once per nonzero, and a string plus a []string a line was most
		// of what a Matrix Market body allocated.
		line := bytes.TrimSpace(sc.Bytes())
		fields, nf := fields3(line)
		if nf == 0 || fields[0][0] == '%' {
			continue
		}
		if sinceCheck++; sinceCheck >= CtxCheckEvery {
			sinceCheck = 0
			if err := ParseCheckpoint(ctx); err != nil {
				return nil, fmt.Errorf("sparse: reading MatrixMarket: %w", err)
			}
		}
		// The declared-size line is a contract, not a hint: entries past
		// the declared count mean the stream and its header disagree.
		if read >= nnz {
			return nil, fmt.Errorf("%w: stream has more entries than the declared %d", ErrMalformed, nnz)
		}
		if nf < 2 {
			return nil, fmt.Errorf("%w: bad MatrixMarket entry %q", ErrMalformed, line)
		}
		i, err := atoiBytes(fields[0])
		if err != nil {
			return nil, fmt.Errorf("%w: bad row index in %q: %v", ErrMalformed, line, err)
		}
		j, err := atoiBytes(fields[1])
		if err != nil {
			return nil, fmt.Errorf("%w: bad col index in %q: %v", ErrMalformed, line, err)
		}
		// MatrixMarket is 1-based.
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("%w: entry (%d,%d) out of range for %dx%d matrix",
				ErrMalformed, i, j, rows, cols)
		}
		v := 1.0
		if valType != "pattern" {
			if nf < 3 {
				return nil, fmt.Errorf("%w: missing value in %q", ErrMalformed, line)
			}
			v, err = strconv.ParseFloat(string(fields[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("%w: bad value in %q: %v", ErrMalformed, line, err)
			}
			if lim.RejectNonFinite && (math.IsNaN(v) || math.IsInf(v, 0)) {
				return nil, fmt.Errorf("%w: non-finite value in %q", ErrMalformed, line)
			}
		}
		if seen != nil {
			key := [2]int32{int32(i - 1), int32(j - 1)}
			if _, dup := seen[key]; dup {
				return nil, fmt.Errorf("%w: duplicate entry (%d,%d)", ErrMalformed, i, j)
			}
			seen[key] = struct{}{}
		}
		e := Entry{Row: i - 1, Col: j - 1, Val: v}
		entries = append(entries, e)
		if symmetry != "general" && e.Row != e.Col {
			mv := v
			if symmetry == "skew-symmetric" {
				mv = -v
			}
			entries = append(entries, Entry{Row: e.Col, Col: e.Row, Val: mv})
		}
		read++
	}
	if err := scanErr(); err != nil {
		return nil, err
	}
	if read < nnz {
		return nil, fmt.Errorf("%w: stream truncated: got %d of %d declared entries", ErrMalformed, read, nnz)
	}
	c, err := NewCOOOwned(rows, cols, entries)
	if err != nil {
		// Unreachable with the pre-validation above, but keep the class.
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return c, nil
}

// fields3 is strings.Fields for the first three fields of a line,
// without the []string: n is how many there are, and 3 also stands for
// "three or more" since nothing reads past the value. A byte outside
// ASCII sends the line through bytes.Fields, so the same Unicode spaces
// separate fields as always did.
func fields3(line []byte) (f [3][]byte, n int) {
	i := 0
	for n < 3 {
		for i < len(line) && asciiSpace(line[i]) {
			i++
		}
		if i == len(line) {
			break
		}
		start := i
		for i < len(line) && !asciiSpace(line[i]) {
			if line[i] >= utf8.RuneSelf {
				n = copy(f[:], bytes.Fields(line))
				return f, n
			}
			i++
		}
		f[n] = line[start:i]
		n++
	}
	return f, n
}

func asciiSpace(c byte) bool {
	return c == ' ' || (c >= '\t' && c <= '\r')
}

// atoiBytes is strconv.Atoi on a field; digits alone, which is every
// index a writer emits, are converted where they stand.
func atoiBytes(b []byte) (int, error) {
	if len(b) == 0 || len(b) > 18 {
		return strconv.Atoi(string(b))
	}
	v := 0
	for _, c := range b {
		if c-'0' > 9 {
			return strconv.Atoi(string(b))
		}
		v = v*10 + int(c-'0')
	}
	return v, nil
}

// parseDim parses a non-negative size-line integer.
func parseDim(s string) (int, error) {
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if n < 0 || n > unlimitedSide {
		return 0, fmt.Errorf("size %d out of range", n)
	}
	return int(n), nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ReadMatrixMarketFile reads a .mtx file from disk.
func ReadMatrixMarketFile(path string) (*COO, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sparse: %w", err)
	}
	defer f.Close()
	c, err := ReadMatrixMarket(f)
	if err != nil {
		return nil, fmt.Errorf("sparse: %s: %w", path, err)
	}
	return c, nil
}

// WriteMatrixMarket writes the matrix as a general real coordinate
// MatrixMarket stream.
func WriteMatrixMarket(w io.Writer, m Matrix) error {
	c := m.ToCOO()
	bw := bufio.NewWriter(w)
	rows, cols := c.Dims()
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n",
		rows, cols, c.NNZ()); err != nil {
		return fmt.Errorf("sparse: writing MatrixMarket header: %w", err)
	}
	for k, v := range c.Vals {
		if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", c.Rows[k]+1, c.Cols[k]+1, v); err != nil {
			return fmt.Errorf("sparse: writing MatrixMarket entry: %w", err)
		}
	}
	return bw.Flush()
}

// WriteMatrixMarketFile writes the matrix to a .mtx file.
func WriteMatrixMarketFile(path string, m Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("sparse: %w", err)
	}
	if err := WriteMatrixMarket(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
