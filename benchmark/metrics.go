package main

import (
	"fmt"
	"time"
)

// metricDecl is one declared metric. BENCHMARK.json carries the same
// names, units and directions (names_test.go holds the two together);
// the regression bounds live only there.
type metricDecl struct {
	Name, Unit, Better string
}

// endToEnd lists the metrics an untraced run prints. Every workload
// prints every one of them (README.md says what each means where).
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"throughput_rps", "1/s", "higher"},
	{"goodput_share", "share", "higher"},
	{"allocs_per_op", "count", "lower"},
	{"heap_p90_mb", "MB", "lower"},
	{"accuracy", "share", "higher"},
	{"model_regret", "ratio", "lower"},
}

// perLayer lists the metrics a traced run prints, layer = repo package.
// A workload that never enters a layer reports 0 for its metrics.
var perLayer = []metricDecl{
	{"sparse.parse_json_us", "us", "lower"},
	{"sparse.parse_json_ns_per_nnz", "ns", "lower"},
	{"sparse.parse_mm_us", "us", "lower"},
	{"sparse.fingerprint_us", "us", "lower"},
	{"sparse.stats_us", "us", "lower"},
	{"sparse.convert_us", "us", "lower"},

	{"represent.normalize_us", "us", "lower"},
	{"represent.normalize_allocs", "count", "lower"},

	{"nn.forward_us", "us", "lower"},
	{"nn.forward_allocs", "count", "lower"},
	{"nn.train_epoch_s", "s", "lower"},

	{"selector.predict_us", "us", "lower"},
	{"selector.self_us", "us", "lower"},
	{"selector.predict_allocs", "count", "lower"},
	{"selector.decision_cost_spmv", "ratio", "lower"},
	{"selector.speedup_vs_csr", "ratio", "higher"},
	{"selector.breakeven_iters", "count", "lower"},

	{"dtree.predict_us", "us", "lower"},
	{"dtree.model_regret", "ratio", "lower"},
	{"dtree.accuracy", "share", "higher"},

	{"serve.request_us", "us", "lower"},
	{"serve.self_us", "us", "lower"},
	{"serve.queue_us", "us", "lower"},
	{"serve.batch_us", "us", "lower"},
	{"serve.rung_us", "us", "lower"},
	{"serve.cache_hit_share", "share", "higher"},
	{"serve.batch_mean_jobs", "count", "higher"},
	{"serve.shed_share", "share", "lower"},
	{"serve.dedup_share", "share", "higher"},
	{"serve.degraded_share", "share", "lower"},

	{"cluster.router_overhead_us", "us", "lower"},
	{"cluster.retry_share", "share", "lower"},
	{"cluster.hedge_share", "share", "lower"},
	{"cluster.budget_exhausted", "count", "lower"},
	{"cluster.peer_fill_hit_share", "share", "higher"},
	{"cluster.replica_limited_share", "share", "lower"},

	{"feedback.dropped_share", "share", "lower"},
	{"feedback.bytes_per_req", "bytes", "lower"},

	{"spmv.ns_per_nnz.csr", "ns", "lower"},
	{"spmv.ns_per_nnz.coo", "ns", "lower"},
	{"spmv.ns_per_nnz.dia", "ns", "lower"},
	{"spmv.ns_per_nnz.ell", "ns", "lower"},
	{"spmv.gbps_computed.csr", "GB/s", "higher"},
	{"spmv.gbps_computed.coo", "GB/s", "higher"},
	{"spmv.gbps_computed.dia", "GB/s", "higher"},
	{"spmv.gbps_computed.ell", "GB/s", "higher"},
	{"spmv.chosen_share.csr", "share", "higher"},
	{"spmv.chosen_share.coo", "share", "higher"},
	{"spmv.chosen_share.dia", "share", "higher"},
	{"spmv.chosen_share.ell", "share", "higher"},

	{"machine.label_us", "us", "lower"},

	{"dataset.append_us_per_record", "us", "lower"},
	{"dataset.flush_ms", "ms", "lower"},
	{"dataset.bytes_per_record", "bytes", "lower"},
	{"dataset.iter_us_per_record", "us", "lower"},

	// The harness itself, and the workload-specific figures the issue
	// named that have no meaning on the other workloads (so they cannot
	// be end-to-end metrics, which every workload must print).
	{"bench.inputs_s", "s", "lower"},
	{"bench.heap_max_mb", "MB", "lower"},
	{"bench.gen_late_p95_ms", "ms", "lower"},
	{"bench.trace_overhead_share", "share", "lower"},
	{"bench.unattributed_share", "share", "lower"},
	{"bench.fail_share", "share", "lower"},
	{"bench.p95_ms", "ms", "lower"},
	{"bench.p99_ms", "ms", "lower"},
	{"bench.fleet_r2_p50_ms", "ms", "lower"},
	{"bench.fleet_r2_p95_ms", "ms", "lower"},
	{"bench.solve_ms", "ms", "lower"},
	{"bench.train_samples_per_s", "1/s", "higher"},
	{"bench.ingest_records_per_s", "1/s", "higher"},
}

// result is what one run of one workload produces.
type result struct {
	workload  string
	attempted int
	failed    int
	metrics   map[string]float64
	// notes are the human-readable lines printed above the metrics:
	// latency histograms with sample counts, sent/succeeded/failed per
	// stage, trace file paths.
	notes []string
}

func newResult(workload string) *result {
	return &result{workload: workload, metrics: map[string]float64{}}
}

// inputs records how long the harness took to generate the workload's
// inputs, started at start.
func (r *result) inputs(start time.Time) {
	r.metrics["bench.inputs_s"] = time.Since(start).Seconds()
	r.notef("inputs generated in %.2fs", r.metrics["bench.inputs_s"])
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}
