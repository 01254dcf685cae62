package dataset

import "repro/internal/obs"

// BuildMetrics are the corpus-build instruments, registered on an obs
// registry so `gendata -metrics-addr` exposes live progress of a
// multi-hour label collection (the paper's authors spent weeks of
// machine time here — a build you cannot watch is a build you cannot
// trust).
type BuildMetrics struct {
	ShardsTotal  *obs.Gauge
	ShardsDone   *obs.Gauge
	Resumed      *obs.Gauge
	Healed       *obs.Gauge
	Records      *obs.Counter
	Quarantined  *obs.Counter
	LabelsPerSec *obs.Gauge
}

// NewBuildMetrics registers the gendata_* instrument set on r.
func NewBuildMetrics(r *obs.Registry) *BuildMetrics {
	return &BuildMetrics{
		ShardsTotal:  r.Gauge("gendata_shards_total", "upper bound on the shards of the current corpus build"),
		ShardsDone:   r.Gauge("gendata_shards_done", "shards published and journaled"),
		Resumed:      r.Gauge("gendata_shards_resumed", "published shards reused on resume"),
		Healed:       r.Gauge("gendata_shards_healed", "shards found damaged on resume, salvaged and regenerated"),
		Records:      r.Counter("gendata_records_labeled_total", "matrices labeled this run"),
		Quarantined:  r.Counter("gendata_quarantined_total", "matrices quarantined this run"),
		LabelsPerSec: r.Gauge("gendata_labels_per_sec", "labeling throughput over the run so far"),
	}
}
