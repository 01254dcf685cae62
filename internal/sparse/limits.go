package sparse

import (
	"errors"
)

// Typed ingestion error classes. Every error returned by the resource-
// governed readers wraps exactly one of these, so transport layers can
// map parse failures to protocol semantics (HTTP 400/413/422) with
// errors.Is instead of string matching.
var (
	// ErrMalformed reports input that violates the format grammar:
	// truncated streams, bad numbers, out-of-range indices, entry counts
	// that disagree with the declared size line.
	ErrMalformed = errors.New("sparse: malformed input")
	// ErrTooLarge reports well-formed input that exceeds a configured
	// resource limit (dimensions, nonzeros, line length) or would
	// overflow index arithmetic.
	ErrTooLarge = errors.New("sparse: input exceeds resource limits")
	// ErrUnsupported reports well-formed input in a dialect this reader
	// does not handle (array layout, complex values, hermitian
	// symmetry).
	ErrUnsupported = errors.New("sparse: unsupported input variant")
)

// DuplicatePolicy says what a reader does with repeated (row,col)
// coordinates in one stream.
type DuplicatePolicy int

const (
	// DupSum keeps the canonicalisation semantics of NewCOO: duplicate
	// entries are summed (and dropped if the sum is zero).
	DupSum DuplicatePolicy = iota
	// DupReject treats a repeated coordinate as ErrMalformed. The
	// MatrixMarket specification lists each nonzero once; a service
	// ingesting untrusted uploads can insist on it.
	DupReject
)

// Limits is the resource budget for ingesting one untrusted matrix.
// The zero value of any field means "use the Unlimited() value" for
// that field; use DefaultLimits for service-grade caps.
type Limits struct {
	// MaxRows / MaxCols bound the declared dimensions. Downstream
	// feature extraction allocates scratch sized by them, not by the
	// nonzeros — ComputeStats (rows+cols)/8 + cols bytes — so this is
	// the cap that keeps a one-line request from becoming a
	// multi-gigabyte allocation.
	MaxRows, MaxCols int
	// MaxNNZ bounds the declared nonzero count (before symmetric
	// expansion, which at most doubles it).
	MaxNNZ int
	// MaxLineBytes bounds a single input line; longer lines are
	// ErrTooLarge instead of a silent bufio.ErrTooLong scan failure.
	MaxLineBytes int
	// Duplicates selects the repeated-coordinate policy.
	Duplicates DuplicatePolicy
	// RejectNonFinite makes NaN/Inf values ErrMalformed. Off for
	// trusted files, on for service ingestion (a NaN poisons every
	// kernel result it touches).
	RejectNonFinite bool
}

// unlimitedSide is the per-dimension cap used when a Limits field is
// zero: large enough for any real matrix, small enough that rows*cols
// cannot overflow int64.
const unlimitedSide = 1 << 31

// DefaultLimits returns service-grade ingestion caps: 4Mi rows/cols,
// 16Mi nonzeros, 64KiB lines, summed duplicates, finite values only.
func DefaultLimits() Limits {
	return Limits{
		MaxRows:         4 << 20,
		MaxCols:         4 << 20,
		MaxNNZ:          16 << 20,
		MaxLineBytes:    64 << 10,
		RejectNonFinite: true,
	}
}

// Unlimited returns the permissive budget used by the trusted-file
// readers: no practical dimension or nnz caps, 16MiB lines.
func Unlimited() Limits {
	return Limits{
		MaxRows:      unlimitedSide,
		MaxCols:      unlimitedSide,
		MaxNNZ:       1 << 40,
		MaxLineBytes: 1 << 24,
	}
}

// withDefaults fills zero fields from Unlimited.
func (l Limits) withDefaults() Limits {
	u := Unlimited()
	if l.MaxRows <= 0 {
		l.MaxRows = u.MaxRows
	}
	if l.MaxCols <= 0 {
		l.MaxCols = u.MaxCols
	}
	if l.MaxNNZ <= 0 {
		l.MaxNNZ = u.MaxNNZ
	}
	if l.MaxLineBytes <= 0 {
		l.MaxLineBytes = u.MaxLineBytes
	}
	return l
}
