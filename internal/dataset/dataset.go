// Package dataset assembles labelled training corpora: it samples
// matrix specs from the synthgen mixture (or walks a MatrixMarket
// tree), computes structural statistics, collects per-format SpMV times
// and best-format labels from a machine labeler (step 1 of the paper's
// Figure 3 pipeline), and provides train/test splits, 5-fold cross
// validation and one integrity-checked on-disk form, the CorpusStore.
// Synthetic matrices are regenerated on demand from their specs,
// keeping stored corpora compact (the paper's corpus is 400 GB; a
// synthetic one is a spec list).
//
// Label collection is by far the most expensive stage of the pipeline
// (the paper spends weeks of machine time on ~9,200 matrices), so a
// store build is crash-safe: every published shard is journaled
// against the source walk (build.go), items that panic or stall are
// quarantined instead of aborting (quarantine.go), and a killed build
// resumes without repeating finished work. Shards are CRC-framed,
// salvaged rather than rejected when damaged (salvage.go), and
// semantically validated on read (persist.go).
package dataset

import (
	"math/rand"

	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// Record is one labelled matrix.
type Record struct {
	ID    uint64
	Spec  synthgen.Spec
	Stats sparse.Stats
	Label sparse.Format
	Times map[sparse.Format]float64

	// mat, when non-nil, is the record's matrix held directly in
	// memory. Shard-at-a-time store iteration uses it for imported
	// patterns, so a streamed shard's matrices are released with the
	// shard. Unexported, so it is never serialised.
	mat *sparse.COO
}

// importedFamily marks a record whose matrix came from a file: no
// synthgen spec can regenerate it, so the store persists its pattern
// and a streamed record carries it in mat.
const importedFamily synthgen.Family = -1

// Matrix regenerates the record's matrix, or returns the in-memory
// copy for imported and store-streamed pattern records.
func (r *Record) Matrix() *sparse.COO {
	if r.mat != nil {
		return r.mat
	}
	return synthgen.Build(r.Spec)
}

// Dataset is a labelled corpus tied to one platform's format set.
type Dataset struct {
	Platform string
	Formats  []sparse.Format
	Records  []Record
}

// ClassIndex maps a format to its label index in Formats, or -1.
func (d *Dataset) ClassIndex(f sparse.Format) int {
	for i, g := range d.Formats {
		if g == f {
			return i
		}
	}
	return -1
}

// NumClasses returns the number of selectable formats.
func (d *Dataset) NumClasses() int { return len(d.Formats) }

// ClassCounts tallies labels per format, in Formats order.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, len(d.Formats))
	for _, r := range d.Records {
		if i := d.ClassIndex(r.Label); i >= 0 {
			counts[i]++
		}
	}
	return counts
}

// Split partitions record indices into train and test sets with the
// given test fraction, shuffled deterministically.
func (d *Dataset) Split(testFrac float64, seed int64) (train, test []int) {
	if testFrac < 0 {
		testFrac = 0
	}
	if testFrac > 1 {
		testFrac = 1
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(d.Records))
	nTest := int(float64(len(perm)) * testFrac)
	return perm[nTest:], perm[:nTest]
}

// KFold returns k folds of record indices for cross validation (the
// paper uses 5-fold). Fold i is the test set of round i; the union of
// the others is the training set.
func (d *Dataset) KFold(k int, seed int64) [][]int {
	if k < 2 {
		k = 2
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(d.Records))
	folds := make([][]int, k)
	for i, idx := range perm {
		folds[i%k] = append(folds[i%k], idx)
	}
	return folds
}

// TrainTestForFold returns the train/test index sets of CV round i.
func TrainTestForFold(folds [][]int, i int) (train, test []int) {
	for j, f := range folds {
		if j == i {
			test = append(test, f...)
		} else {
			train = append(train, f...)
		}
	}
	return train, test
}
