// Package feedback closes the serve→retrain→redeploy loop around the
// format selector (ROADMAP item 4, building on the paper's Section 6
// transfer-learning schemes). It has four cooperating pieces:
//
//   - Logger: serve replicas append one Entry per answered prediction
//     to a crash-safe JSONL feedback log — fingerprint, structural
//     features, the chosen format, the ladder rung, cache outcome, and
//     an SpMV timing (client-reported when the request carried one,
//     otherwise the machine cost model's estimate for the served
//     format). Writes are batched off the request path and segments
//     rotate by size and age.
//   - Collector: folds rotated segments into an online corpus — a
//     regular internal/dataset corpus store, each record stored with
//     its captured pattern — deduplicating by fingerprint, so the
//     corpus reflects the distinct patterns production traffic actually
//     carries.
//   - Detector: watches the folded entries for distribution drift
//     against the training-corpus profile (prediction mix, feature
//     shift, degradation-rung occupancy, cache-hit decay) with
//     hysteresis, exposed as feedback_drift_* metrics.
//   - Shepherd: the supervisor state machine (driven by cmd/shepherd)
//     that, on sustained drift, runs a bounded top-evolvement retrain,
//     shadows the candidate inside the live server, and promotes it
//     through the probe-validated hot reload — journaling every
//     transition so a restart resumes where it left off.
package feedback

import "repro/internal/sparse"

// Entry is one captured prediction outcome — a single JSONL line of the
// feedback log. Fields the serving tier cannot cheaply produce on the
// request path (Stats, the pattern, the timing estimate) are filled by
// the Logger's background flusher.
type Entry struct {
	// Time is the capture time in Unix nanoseconds.
	Time int64 `json:"t"`
	// Fingerprint is the matrix's position-only pattern hash — the
	// prediction cache key, and the dedup key for the online corpus.
	Fingerprint uint64 `json:"fp"`
	// Format is the format the server answered with.
	Format string `json:"format"`
	// Rung is the degradation-ladder rung that answered (cnn, dtree,
	// csr).
	Rung string `json:"rung"`
	// FellBack marks non-CNN answers.
	FellBack bool `json:"fell_back,omitempty"`
	// CacheHit marks answers served from the prediction cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// ModelGen is the live model generation that answered.
	ModelGen uint64 `json:"model_gen"`
	// ClientSec is the client-reported SpMV seconds for this pattern
	// (the optional spmv_seconds request field); 0 = not reported.
	ClientSec float64 `json:"client_spmv_sec,omitempty"`
	// EstSec is the machine cost model's SpMV seconds for Format on
	// Stats (xeonlike), filled when the client reported nothing; 0 =
	// not estimated.
	EstSec float64 `json:"est_spmv_sec,omitempty"`
	// Stats are the structural statistics of the posted matrix — the
	// drift detector's feature source and the labeler's input when the
	// entry is folded into the online corpus.
	Stats sparse.Stats `json:"stats"`
	// PatRows/PatCols carry the COO pattern (positions only — the
	// selector's representations are value-blind) when the matrix is
	// within the logger's pattern budget; entries beyond the budget
	// still feed drift detection but cannot join the retrain corpus.
	PatRows []int32 `json:"pat_rows,omitempty"`
	PatCols []int32 `json:"pat_cols,omitempty"`
}

// HasPattern reports whether the entry carries a reconstructible
// pattern.
func (e *Entry) HasPattern() bool {
	return len(e.PatRows) > 0 && len(e.PatRows) == len(e.PatCols)
}
