package dataset

import (
	"errors"
	"fmt"

	"repro/internal/synthgen"
)

// Build stages an item can be quarantined at.
const (
	StageBuild = "build" // synthgen.Build of the spec, or reading the file
	StageStats = "stats" // structural statistics
	StageLabel = "label" // per-format timing + argmin
)

// QuarantineEntry records one source item that failed to build, read or
// label: what it was (the spec, enough to reproduce the failure
// offline, or the file's path relative to the source directory), the
// stage and error, and whether the failure was a panic or a deadline.
// A store build journals its entries and rewrites them to
// quarantine/quarantine.jsonl when it ends, so a multi-hour label
// collection survives a poison matrix and still tells the operator
// exactly what it skipped.
type QuarantineEntry struct {
	Index   int            `json:"index"` // position in the source walk
	Spec    *synthgen.Spec `json:"spec,omitempty"`
	File    string         `json:"file,omitempty"`
	Stage   string         `json:"stage"`
	Error   string         `json:"error"`
	Panic   bool           `json:"panic,omitempty"`
	Timeout bool           `json:"timeout,omitempty"`
}

// Typed build-abort errors. Quarantine is the containment path; these
// are the escalation paths when containment itself signals the build is
// not worth finishing.
var (
	// ErrTooManyQuarantined aborts a build whose quarantine fraction
	// exceeded Config.MaxQuarantineFrac — when a quarter of the corpus is
	// failing, the problem is systemic, not a few poison matrices, and
	// burning machine-days on the remainder helps nobody.
	ErrTooManyQuarantined = errors.New("dataset: too many matrices quarantined")
	// ErrBreakerTripped aborts a build after Config.BreakerThreshold
	// consecutive failures — consecutive (as opposed to scattered)
	// failures mean the labeler itself is sick.
	ErrBreakerTripped = errors.New("dataset: labeling breaker tripped on consecutive failures")
	// ErrMatrixTimeout is the per-item quarantine reason when labeling
	// exceeds Config.MatrixTimeout.
	ErrMatrixTimeout = errors.New("dataset: per-matrix deadline exceeded")
)

// BuildReport summarises one build — returned to the caller and, for a
// store build, appended as a single JSON line to <store>/report.jsonl.
type BuildReport struct {
	Platform      string            `json:"platform"`
	Items         int               `json:"items"` // specs sampled or files discovered
	Records       int               `json:"records"`
	Shards        int               `json:"shards"`
	Dupes         int               `json:"dupes"`          // appends skipped by the dedup index
	ResumedShards int               `json:"resumed_shards"` // published earlier, reused
	ResumedAt     int               `json:"resumed_at"`     // first walk position processed this run
	HealedShards  int               `json:"healed_shards"`  // found damaged on resume, salvaged and regenerated
	Quarantined   []QuarantineEntry `json:"quarantined,omitempty"`
	ElapsedSec    float64           `json:"elapsed_seconds"`
	LabelsPerSec  float64           `json:"labels_per_second"`
}

func (r *BuildReport) String() string {
	return fmt.Sprintf("built %d records from %d items in %d shards (%d resumed at item %d, %d healed, %d dupes skipped, %d quarantined) in %.2fs (%.1f labels/s)",
		r.Records, r.Items, r.Shards, r.ResumedShards, r.ResumedAt, r.HealedShards, r.Dupes, len(r.Quarantined), r.ElapsedSec, r.LabelsPerSec)
}
