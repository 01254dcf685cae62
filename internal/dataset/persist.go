package dataset

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// Typed persistence errors. ErrCorrupt means the bytes on disk cannot be
// trusted (truncation, bit flips, wrong artifact kind, undecodable
// payload — for a store, damage that salvage recovered nothing from);
// ErrInvalid means the bytes decoded fine but the dataset they describe
// is semantically broken (labels outside the format set, NaN/negative
// times, empty corpus, out-of-range specs);
// ErrMismatch means a well-formed dataset was offered to the wrong
// consumer (a GPU-labeled corpus fed to a CPU labeler). Callers match
// with errors.Is and surface each distinctly — a corrupt file wants
// regeneration, an invalid one wants a bug report, a mismatched one
// wants a different -platform.
var (
	ErrCorrupt  = errors.New("dataset: corrupt corpus")
	ErrInvalid  = errors.New("dataset: invalid dataset")
	ErrMismatch = errors.New("dataset: dataset does not match the requesting platform")
)

// wireRecord is the deterministic serialisation of a Record: the Times
// map is flattened into format-sorted parallel slices because gob
// encodes maps in randomised iteration order, and shard files must be
// byte-identical across runs for the resume-equivalence guarantee
// (same source, interrupted or not, same checksum).
type wireRecord struct {
	ID    uint64
	Spec  synthgen.Spec
	Stats sparse.Stats
	Label sparse.Format
	// TimeFormats (ascending) and TimeSecs are the flattened Times map.
	TimeFormats []sparse.Format
	TimeSecs    []float64
}

func toWireRecord(r *Record) wireRecord {
	wr := wireRecord{ID: r.ID, Spec: r.Spec, Stats: r.Stats, Label: r.Label}
	wr.TimeFormats = make([]sparse.Format, 0, len(r.Times))
	for f := range r.Times {
		wr.TimeFormats = append(wr.TimeFormats, f)
	}
	sort.Slice(wr.TimeFormats, func(a, b int) bool { return wr.TimeFormats[a] < wr.TimeFormats[b] })
	wr.TimeSecs = make([]float64, len(wr.TimeFormats))
	for j, f := range wr.TimeFormats {
		wr.TimeSecs[j] = r.Times[f]
	}
	return wr
}

func fromWireRecord(wr *wireRecord) (Record, error) {
	if len(wr.TimeFormats) != len(wr.TimeSecs) {
		return Record{}, fmt.Errorf("%w: record %d has %d time formats but %d time values",
			ErrInvalid, wr.ID, len(wr.TimeFormats), len(wr.TimeSecs))
	}
	times := make(map[sparse.Format]float64, len(wr.TimeFormats))
	for j, f := range wr.TimeFormats {
		times[f] = wr.TimeSecs[j]
	}
	return Record{ID: wr.ID, Spec: wr.Spec, Stats: wr.Stats, Label: wr.Label, Times: times}, nil
}

// Validate checks the dataset's semantic invariants: a non-empty
// platform and format set without duplicates, at least one record, every
// label inside the format set with a recorded time, no NaN or negative
// times (+Inf is legal — it is the "conversion refused" sentinel the
// wall-clock labeler writes for blowup formats), positive matrix
// dimensions with nnz inside them, and generator specs within the known
// family range. Violations return errors matching ErrInvalid.
func (d *Dataset) Validate() error {
	if d.Platform == "" {
		return fmt.Errorf("%w: empty platform", ErrInvalid)
	}
	if len(d.Formats) == 0 {
		return fmt.Errorf("%w: empty format set", ErrInvalid)
	}
	seen := map[sparse.Format]bool{}
	for _, f := range d.Formats {
		if seen[f] {
			return fmt.Errorf("%w: duplicate format %v in format set", ErrInvalid, f)
		}
		seen[f] = true
	}
	if len(d.Records) == 0 {
		return fmt.Errorf("%w: no records", ErrInvalid)
	}
	for i := range d.Records {
		if err := d.validateRecord(i); err != nil {
			return err
		}
	}
	return nil
}

// maxSpecDim bounds generator spec dimensions; anything past it is a
// corrupt or hostile spec, not a plausible corpus entry.
const maxSpecDim = 1 << 30

func (d *Dataset) validateRecord(i int) error {
	r := &d.Records[i]
	if d.ClassIndex(r.Label) < 0 {
		return fmt.Errorf("%w: record %d label %v not in format set %v", ErrInvalid, i, r.Label, d.Formats)
	}
	if len(r.Times) == 0 {
		return fmt.Errorf("%w: record %d has no measured times", ErrInvalid, i)
	}
	if _, ok := r.Times[r.Label]; !ok {
		return fmt.Errorf("%w: record %d label %v has no measured time", ErrInvalid, i, r.Label)
	}
	for f, t := range r.Times {
		if math.IsNaN(t) || t < 0 {
			return fmt.Errorf("%w: record %d time for %v is %v", ErrInvalid, i, f, t)
		}
	}
	st := r.Stats
	if st.Rows <= 0 || st.Cols <= 0 {
		return fmt.Errorf("%w: record %d has %dx%d dims", ErrInvalid, i, st.Rows, st.Cols)
	}
	if st.NNZ <= 0 || float64(st.NNZ) > float64(st.Rows)*float64(st.Cols) {
		return fmt.Errorf("%w: record %d has nnz %d outside (0, %dx%d]", ErrInvalid, i, st.NNZ, st.Rows, st.Cols)
	}
	s := r.Spec
	if s.Family < importedFamily || s.Family > synthgen.FamilyUniformOutliers {
		return fmt.Errorf("%w: record %d spec family %d out of range", ErrInvalid, i, s.Family)
	}
	if s.N < 0 || s.N > maxSpecDim || s.Rows < 0 || s.Rows > maxSpecDim ||
		s.Cols < 0 || s.Cols > maxSpecDim || s.NNZ < 0 {
		return fmt.Errorf("%w: record %d spec bounds out of range (n=%d rows=%d cols=%d nnz=%d)",
			ErrInvalid, i, s.N, s.Rows, s.Cols, s.NNZ)
	}
	return nil
}
