// Command benchgate compares a fresh BENCH.json against the committed
// BENCH_baseline.json and fails when a guarded hot-path benchmark has
// regressed beyond the threshold.
//
//	go run ./scripts/benchgate -baseline BENCH_baseline.json -current BENCH.json
//
// Only the guarded set is gated — the SpMV kernels, representation
// construction, the float32 inference engine, the whole decision at the
// shipped geometry (selector.Predict), training (selector.TrainStreamCtx
// from scratch, and after Transfer(TopEvolvement)), the
// serve predict path and its parse stage (body decode, fingerprint),
// the structural-statistics sweep with the labeler and the
// decision-tree rung it feeds, and format conversion — because
// micro-noise on the heavyweight experiment reproductions would make a
// blanket gate flaky. Every guarded benchmark is gated on BOTH axes:
// ns/op against -threshold
// and allocs/op against -alloc-threshold. Allocations are counted, not
// sampled, so the alloc gate is far tighter than the timing gate; in
// particular a baseline of 0 allocs/op is a hard contract — any
// current value above zero fails regardless of threshold, because
// "allocation-free" is a property, not a quantity.
//
// Missing data is an error, never a silent pass: a guarded benchmark
// present in the baseline but absent from the current run fails (a
// silently deleted benchmark is a silently dropped guarantee); a
// guarded benchmark whose baseline or current entry lacks the
// allocs_per_op column fails (run with -benchmem, or regenerate the
// baseline); and a guarded pattern that matches nothing in the
// baseline at all is a setup error (exit 2) — it means a benchmark
// family was renamed out from under its gate. New benchmarks absent
// from the baseline only produce a note. With -advisory the gate
// prints its verdict but always exits 0, which is how CI runs it on
// pull requests before the blocking run on the main branch.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
)

type result struct {
	NsPerOp     float64  `json:"ns_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
}

type doc struct {
	Benchmarks map[string]result `json:"benchmarks"`
}

// guarded names the hot paths whose latency and allocation behaviour
// are a contract. Keys are regexps over "<import path>/Benchmark<name>"
// as written by benchjson. The parallel SpMV variants are deliberately
// ungated: their timings fold in goroutine scheduling on however many
// cores the runner has, which is noise about the machine, not the
// kernel.
var guarded = []*regexp.Regexp{
	regexp.MustCompile(`^repro/internal/spmv/BenchmarkKernelMul/`),
	regexp.MustCompile(`^repro/internal/represent/BenchmarkNormalize`),
	regexp.MustCompile(`^repro/internal/serve/BenchmarkPredict`),
	regexp.MustCompile(`^repro/internal/serve/BenchmarkDecode`),
	regexp.MustCompile(`^repro/internal/sparse/BenchmarkFingerprint`),
	regexp.MustCompile(`^repro/internal/sparse/BenchmarkComputeStats`),
	regexp.MustCompile(`^repro/internal/sparse/BenchmarkConvert/`),
	regexp.MustCompile(`^repro/internal/machine/BenchmarkLabel`),
	regexp.MustCompile(`^repro/internal/dtree/BenchmarkPredict`),
	regexp.MustCompile(`^repro/internal/nn/BenchmarkInfer32Predict`),
	regexp.MustCompile(`^repro/internal/selector/BenchmarkPredict/`),
	regexp.MustCompile(`^repro/internal/selector/BenchmarkTrainStream`),
}

// allocOnly names benchmarks whose allocs/op is the contract while
// their latency stays ungated. The streaming shard iterator is gated
// this way: its promise is bounded memory per shard, and an accidental
// whole-store materialisation is an alloc explosion well before it is
// a latency regression — but its wall-clock folds in disk cache state,
// which is noise about the runner.
var allocOnly = []*regexp.Regexp{
	regexp.MustCompile(`^repro/internal/dataset/BenchmarkShardIter`),
}

func matchAny(res []*regexp.Regexp, key string) bool {
	for _, re := range res {
		if re.MatchString(key) {
			return true
		}
	}
	return false
}

func load(path string) (doc, error) {
	var d doc
	data, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(data, &d); err != nil {
		return d, fmt.Errorf("%s: %v", path, err)
	}
	if len(d.Benchmarks) == 0 {
		return d, fmt.Errorf("%s: no benchmarks", path)
	}
	return d, nil
}

func main() {
	baseline := flag.String("baseline", "BENCH_baseline.json", "committed baseline")
	current := flag.String("current", "BENCH.json", "fresh benchmark run")
	threshold := flag.Float64("threshold", 0.25, "max allowed ns/op regression ratio")
	allocThreshold := flag.Float64("alloc-threshold", 0.10, "max allowed allocs/op regression ratio")
	allocSlack := flag.Float64("alloc-slack", 2, "absolute allocs/op growth always tolerated (small-count jitter); never applies to a zero baseline")
	advisory := flag.Bool("advisory", false, "report but always exit 0")
	flag.Parse()

	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	// Every guarded pattern must cover at least one baseline benchmark;
	// a pattern matching nothing means the benchmark it was written for
	// no longer exists under that name, and the gate it implies has
	// quietly evaporated.
	for _, re := range append(append([]*regexp.Regexp{}, guarded...), allocOnly...) {
		found := false
		for k := range base.Benchmarks {
			if re.MatchString(k) {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "benchgate: guarded pattern %q matches no baseline benchmark — renamed or deleted?\n", re)
			os.Exit(2)
		}
	}

	keys := make([]string, 0, len(base.Benchmarks))
	for k := range base.Benchmarks {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	failures := 0
	checked := 0
	for _, k := range keys {
		timed, allocd := matchAny(guarded, k), matchAny(allocOnly, k)
		if !timed && !allocd {
			continue
		}
		b := base.Benchmarks[k]
		c, ok := cur.Benchmarks[k]
		if !ok {
			fmt.Printf("FAIL  %-60s guarded benchmark missing from current run\n", k)
			failures++
			continue
		}
		if timed {
			checked++
			ratio := c.NsPerOp/b.NsPerOp - 1
			verdict := "ok  "
			if ratio > *threshold {
				verdict = "FAIL"
				failures++
			}
			fmt.Printf("%s  %-60s %12.0f -> %12.0f ns/op  (%+.1f%%)\n",
				verdict, k, b.NsPerOp, c.NsPerOp, 100*ratio)
		}
		// Every guarded benchmark is alloc-gated; allocOnly entries are
		// gated on nothing else.
		checked++
		switch {
		case b.AllocsPerOp == nil:
			fmt.Printf("FAIL  %-60s baseline lacks allocs/op (regenerate BENCH_baseline.json with -benchmem)\n", k)
			failures++
		case c.AllocsPerOp == nil:
			fmt.Printf("FAIL  %-60s current run lacks allocs/op (run with -benchmem or ReportAllocs)\n", k)
			failures++
		case *b.AllocsPerOp == 0:
			// Allocation-free is a property: the gate admits no slack.
			verdict := "ok  "
			if *c.AllocsPerOp != 0 {
				verdict = "FAIL"
				failures++
			}
			fmt.Printf("%s  %-60s %12.0f -> %12.0f allocs/op  (zero-alloc contract)\n",
				verdict, k, *b.AllocsPerOp, *c.AllocsPerOp)
		default:
			ratio := *c.AllocsPerOp / *b.AllocsPerOp - 1
			delta := *c.AllocsPerOp - *b.AllocsPerOp
			verdict := "ok  "
			if ratio > *allocThreshold && delta > *allocSlack {
				verdict = "FAIL"
				failures++
			}
			fmt.Printf("%s  %-60s %12.0f -> %12.0f allocs/op  (%+.1f%%)\n",
				verdict, k, *b.AllocsPerOp, *c.AllocsPerOp, 100*ratio)
		}
	}
	for k := range cur.Benchmarks {
		if matchAny(guarded, k) || matchAny(allocOnly, k) {
			if _, ok := base.Benchmarks[k]; !ok {
				fmt.Printf("note  %-60s new guarded benchmark, not in baseline\n", k)
			}
		}
	}

	if checked == 0 && failures == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: baseline contains no guarded benchmarks")
		os.Exit(2)
	}
	switch {
	case failures == 0:
		fmt.Printf("benchgate: %d guarded checks within ns/op %.0f%% and allocs/op %.0f%%\n",
			checked, 100**threshold, 100**allocThreshold)
	case *advisory:
		fmt.Printf("benchgate: %d regression(s) (advisory mode, not failing)\n", failures)
	default:
		fmt.Printf("benchgate: %d regression(s)\n", failures)
		os.Exit(1)
	}
}
