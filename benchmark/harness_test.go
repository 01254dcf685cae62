package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/core"
)

// benchmarkJSON is the schema of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              *float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// The names the harness prints and the names BENCHMARK.json declares are
// the same sets, with the same units and directions.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(declarations)
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(kind string, got []metricDecl, want []metricDecl) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness prints %d", kind, len(got), len(want))
		}
		byName := map[string]metricDecl{}
		for _, d := range got {
			byName[d.Name] = d
		}
		for _, d := range want {
			if !name.MatchString(d.Name) {
				t.Errorf("%s: name %q is outside [A-Za-z0-9_.-]", kind, d.Name)
			}
			if seen[d.Name] {
				t.Errorf("%s: name %q is used twice", kind, d.Name)
			}
			seen[d.Name] = true
			if byName[d.Name] != d {
				t.Errorf("%s: harness prints %+v, BENCHMARK.json has %+v", kind, d, byName[d.Name])
			}
		}
	}
	var e2e, layer []metricDecl
	hasSetup := false
	for _, d := range decl.EndToEnd {
		e2e = append(e2e, metricDecl{d.Name, d.Unit, d.Better})
		if d.Bound == nil || *d.Bound < 0 || *d.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound missing or outside [0, 0.25]", d.Name)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, d := range decl.PerLayer {
		layer = append(layer, metricDecl{d.Name, d.Unit, d.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)

	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness runs %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, decl.Workloads[i].Name, w.name)
		}
		if n := len(decl.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, n)
		}
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", decl.RunSeconds, defaultSeconds)
	}
}

// hash is a digest of the pool's request bodies: same seed, same hash.
func (p *pool) hash() string {
	h := sha256.New()
	for i := range p.entries {
		h.Write(p.entries[i].body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestPoolsAreSeeded(t *testing.T) {
	build := func(seed int64) string {
		p, err := buildPool(poolSeed(seed, "hot_zipf"), 12, 24, 96, hotMMEvery, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.entries {
			if wantMM := i%hotMMEvery == hotMMEvery-1; wantMM != (p.entries[i].contentType == "text/matrix-market") {
				t.Errorf("entry %d content type %q", i, p.entries[i].contentType)
			}
		}
		return p.hash()
	}
	a, b, c := build(1), build(1), build(2)
	if a != b {
		t.Error("same seed, different pools")
	}
	if a == c {
		t.Error("different seeds, same pool")
	}
	if poolSeed(1, "hot_zipf") == poolSeed(1, "lone_uncached") {
		t.Error("two workloads share an input stream")
	}
	x, y := zipfSequence(5, hotZipfS, 64, 100), zipfSequence(5, hotZipfS, 64, 100)
	for i := range x {
		if x[i] != y[i] || x[i] < 0 || x[i] >= 64 {
			t.Fatalf("zipf draw %d: %d and %d", i, x[i], y[i])
		}
	}
}

func TestStratifySpreadsSizesOverPopularity(t *testing.T) {
	sizes := make([]int, 1024)
	for i := range sizes {
		sizes[i] = (i * 7919) % 1024 // a permutation of 0..1023: size == value
	}
	for _, count := range []int{64, 200, 1024} {
		order := stratify(sizes, count)
		seen := map[int]bool{}
		for _, i := range order {
			if seen[i] {
				t.Fatalf("count %d: candidate %d picked twice", count, i)
			}
			seen[i] = true
		}
		if len(order) != count {
			t.Fatalf("count %d: %d picks", count, len(order))
		}
		// Hottest is median-sized, the next two are the quartiles.
		for rank, want := range []int{512, 256, 768} {
			if got := sizes[order[rank]]; got < want-16 || got > want+16 {
				t.Errorf("count %d: rank %d has size %d, want about %d", count, rank, got, want)
			}
		}
		// Every octave of popularity sees the whole size range.
		lo, hi := 1024, 0
		for _, i := range order[8:16] {
			lo, hi = min(lo, sizes[i]), max(hi, sizes[i])
		}
		if lo > 128 || hi < 896 {
			t.Errorf("count %d: ranks 8..15 span sizes %d..%d only", count, lo, hi)
		}
	}
}

// tinySizes runs the real workload code at a scale that finishes in
// about a second per workload.
var tinySizes = sizes{
	setupRepeats:    1,
	cacheSize:       8,
	lonePool:        16,
	hotPool:         8,
	fleetPool:       24,
	serveCandidates: 32,
	offlinePool:     6, offlineCandidates: 12,
	offlineMaxN:  256,
	retrainSpecs: 40, retrainShard: 10, retrainEpochs: 1,
}

// Every workload runs end to end, untraced and traced, with no failed
// operation; it prints only declared names; untraced it leaves no
// end-to-end metric at zero; traced it writes its span file.
func TestWorkloadsSmoke(t *testing.T) {
	dir := t.TempDir()
	res, err := core.Train(core.Options{Platform: modelOptions.Platform, Count: 40, MaxN: 128, Epochs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	model := filepath.Join(dir, "model.gob")
	if err := res.Selector.SaveFile(model); err != nil {
		t.Fatal(err)
	}
	declaredNames := map[string]bool{}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		declaredNames[d.Name] = true
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r := run{seed: 1, seconds: 0.4, traced: traced, modelPath: model, outDir: dir, sz: tinySizes}
			got, err := w.measure(r)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if got.failed != 0 || got.attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d\n%v", w.name, traced, got.attempted, got.failed, got.notes)
			}
			for k := range got.metrics {
				if !declaredNames[k] {
					t.Errorf("%s traced=%v prints undeclared metric %q", w.name, traced, k)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if got.metrics[d.Name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g", w.name, d.Name, got.metrics[d.Name])
					}
				}
				continue
			}
			if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("%s: no span file: %v", w.name, err)
			}
			// The two cache regimes the in-process workloads exist for.
			switch hit := got.metrics["serve.cache_hit_share"]; {
			case w.name == "lone_uncached" && hit != 0:
				t.Errorf("lone_uncached hit the cache (share %g)", hit)
			case w.name == "hot_zipf" && hit < 0.5:
				t.Errorf("hot_zipf cache hit share %g", hit)
			}
		}
	}
}
