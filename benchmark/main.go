// Command benchmark is the repo's end-to-end benchmark: five named
// workloads driven only through the public functions of internal/...,
// every answer checked, every metric printed by name with its unit.
//
//	go run -C benchmark . -seed 1              # every workload, untraced then traced
//	go run -C benchmark . -workload hot_zipf -seed 3 -seconds 10 -trace 0
//	go run -C benchmark . -repeat 5 -seed 1    # spreads against the bounds
//
// With -workload, the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. README.md documents the
// workloads, the metrics and the fixed parameters.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// The harness runs in its own directory (go run -C benchmark). outDir
// holds everything it writes: the cached model, span files and per-run
// scratch directories. It is ignored by git.
const (
	outDir       = "out"
	declarations = "../BENCHMARK.json"
)

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(run) (*result, error)
}

// measure runs the workload and adds the one figure every traced run
// shares: failures against operations attempted.
func (w workload) measure(r run) (*result, error) {
	res, err := w.run(r)
	if err == nil && r.traced {
		res.metrics["bench.fail_share"] = ratio(float64(res.failed), float64(res.attempted))
	}
	return res, err
}

var workloads = []workload{
	{"lone_uncached", runLoneUncached},
	{"hot_zipf", runHotZipf},
	{"fleet_open", runFleetOpen},
	{"offline_select", runOfflineSelect},
	{"retrain_stream", runRetrainStream},
}

func main() {
	name := flag.String("workload", "", "run one workload and end with its JSON result line (empty = all five)")
	seed := flag.Int64("seed", 1, "workload seed: only generated inputs depend on it")
	seconds := flag.Float64("seconds", defaultSeconds, "measured window per workload in seconds")
	trace := flag.Int("trace", -1, "0 = end-to-end metrics, 1 = traced run with per-layer metrics (default: 0 with -workload, both without)")
	repeat := flag.Int("repeat", 1, "run the whole suite this many times and check every end-to-end spread against its bound")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, trace, repeat int) error {
	if raceEnabled {
		return errors.New("built with the race detector: its timings measure the detector, not the program")
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if seconds <= 0 || repeat < 1 || trace < -1 || trace > 1 {
		return errors.New("need -seconds > 0, -repeat >= 1 and -trace 0 or 1")
	}
	// The harness pins the parallelism it measures under: one P per
	// core, whatever GOMAXPROCS the environment asked for.
	runtime.GOMAXPROCS(runtime.NumCPU())
	printHeader(seed, seconds)
	modelPath, err := ensureModel(outDir, os.Stdout)
	if err != nil {
		return err
	}
	r := run{seed: seed, seconds: seconds, modelPath: modelPath, outDir: outDir, sz: fullSizes}

	if name != "" {
		for _, w := range workloads {
			if w.name == name {
				r.traced = trace == 1
				res, err := w.measure(r)
				if err != nil {
					return err
				}
				report(res, r.traced)
				return printJSON(res, r.traced)
			}
		}
		return fmt.Errorf("unknown workload %q", name)
	}

	var modes []bool
	if trace != 1 {
		modes = append(modes, false)
	}
	if trace != 0 && repeat == 1 {
		modes = append(modes, true)
	}
	runs := map[string][]float64{} // "workload metric" -> one value per repeat
	failed := 0
	for i := 0; i < repeat; i++ {
		for _, traced := range modes {
			for _, w := range workloads {
				r.traced = traced
				res, err := w.measure(r)
				if err != nil {
					return err
				}
				report(res, traced)
				failed += res.failed
				if !traced {
					for _, d := range endToEnd {
						key := w.name + " " + d.Name
						runs[key] = append(runs[key], res.metrics[d.Name])
					}
				}
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	if repeat > 1 {
		return checkSpreads(runs)
	}
	return nil
}

// printHeader pins the environment a result was measured in.
func printHeader(seed int64, seconds float64) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("benchmark: commit=%s go=%s nproc=%d GOMAXPROCS=%d cpu=%q\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel())
	fmt.Printf("benchmark: seed=%d measured=%gs warm-up=%gs fleet stage=%gs traced split=%g set-up repeats>=%d for>=%v\n",
		seed, seconds, seconds*warmupShare, seconds*fleetStageShare, tracedShare, fullSizes.setupRepeats, fullSizes.setupFor)
}

// cpuModel reads the CPU model name where the platform exposes it.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// declared returns the metric list a run prints.
func declared(traced bool) []metricDecl {
	if traced {
		return perLayer
	}
	return endToEnd
}

// report prints one workload's result for a reader.
func report(res *result, traced bool) {
	mode := "end-to-end"
	if traced {
		mode = "traced, per-layer"
	}
	fmt.Printf("\n== %s (%s) ==\n", res.workload, mode)
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	fmt.Printf("  attempted=%d failed=%d fail_share=%.6f\n", res.attempted, res.failed, ratio(float64(res.failed), float64(res.attempted)))
	for _, d := range declared(traced) {
		fmt.Printf("  %-32s %14.6g %-6s (%s is better)\n", d.Name, res.metrics[d.Name], d.Unit, d.Better)
	}
}

// printJSON writes the result line the driver reads.
func printJSON(res *result, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, d := range declared(traced) {
		out.Metrics[d.Name] = value{res.metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkSpreads prints, per workload and end-to-end metric, the relative
// spread of the repeats against the metric's bound in BENCHMARK.json,
// and fails when any spread exceeds its bound.
func checkSpreads(runs map[string][]float64) error {
	data, err := os.ReadFile(declarations)
	if err != nil {
		return fmt.Errorf("reading the bounds (run from the benchmark directory): %w", err)
	}
	var decl struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("%s: %w", declarations, err)
	}
	bound := map[string]float64{}
	for _, d := range decl.EndToEnd {
		bound[d.Name] = d.Bound
	}
	keys := make([]string, 0, len(runs))
	for k := range runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("\n== spread over %d repeats (interquartile range / median) ==\n", len(runs[keys[0]]))
	var over []string
	for _, k := range keys {
		_, metric, _ := strings.Cut(k, " ")
		sp, b := relSpread(runs[k]), bound[metric]
		verdict := "ok"
		// setup_s is held to its bound between medians of run sets, not
		// within one set.
		if sp > b && metric != "setup_s" {
			verdict = "EXCEEDS"
			over = append(over, k)
		}
		fmt.Printf("  %-40s median %12.6g spread %6.2f%% bound %5.1f%% %s\n", k, median(runs[k]), 100*sp, 100*b, verdict)
	}
	if len(over) > 0 {
		return fmt.Errorf("spread exceeds the bound on: %s", strings.Join(over, ", "))
	}
	return nil
}
