// Command corpusdrill is the CI crash drill for the corpus store and
// the one resumable build that fills it (wired into scripts/check.sh /
// make check). The in-process tests prove the invariants under
// cooperative faults; this drill proves them against the real
// binaries, running the same script once per source — the synthetic
// generator (`gendata -count`) and a MatrixMarket tree (`gendata
// -import-dir`, with nested dirs, one byte-identical duplicate and one
// malformed file):
//
//  1. reference: an uninterrupted build into a store, checksummed file
//     by file;
//  2. kill: the same build, slowed by the dataset.label.stall fault,
//     SIGKILLed once at least two shards have been published and
//     journaled (three shard files on disk);
//  3. disk full: `-resume` with dataset.store.writefail armed must
//     abort with exit 1 at a shard boundary, the published shards
//     intact;
//  4. resume: `-resume` must exit 0, reuse the published shards (not
//     start over), and produce a store byte-identical to the reference
//     — shard files, manifest and dedup index alike;
//  5. refusal: `-resume` with a changed flag must be refused, leaving
//     the store as it was;
//  6. quarantine: with dataset.label.panic armed the build must still
//     complete and persist what it skipped and why to
//     quarantine/quarantine.jsonl;
//  7. salvage: with shards deliberately bit-flipped, `train
//     -dataset-in <store>` and `experiments -run heldout` must
//     complete on the survivors, quarantining the damaged originals
//     and writing salvage.json rather than aborting.
//
// With -dir the drill artifacts (the stores, quarantine logs,
// salvage.json, the held-out reports) are kept there so CI can upload
// the evidence; by default a temp dir is used and removed. -short
// halves the corpus sizes for the fast merge gate.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/drill"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

var keep = flag.String("dir", "", "keep drill artifacts in this directory (default: temp dir, removed)")
var short = flag.Bool("short", false, "halve the corpus sizes")

func main() { drill.Main("corpusdrill", run) }

// source is one way of feeding gendata, with what its uninterrupted
// build must report.
type source struct {
	name    string
	args    []string // source-selecting flags, shared by every run
	changed []string // one flag changed: -resume must refuse
	stall   string   // per-matrix delay that lets the SIGKILL land mid-build
	records int
	dupes   int
	broken  int // items the source itself gets quarantined
}

func run(d *drill.D) error {
	dir := d.Dir
	if *keep != "" {
		dir = *keep
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}

	d.Step("building cmd/gendata, cmd/train, cmd/experiments")
	if err := d.Build("gendata", "train", "experiments"); err != nil {
		return err
	}

	count, files := 240, 60
	if *short {
		count, files = 120, 40
	}
	d.Step("writing the MatrixMarket fixture tree")
	tree := filepath.Join(dir, "mtx")
	if err := writeFixtureTree(tree, files); err != nil {
		return err
	}
	sources := []source{
		{
			name:    "generator",
			args:    []string{"-count", strconv.Itoa(count), "-maxn", "160", "-seed", "7", "-shard-size", "8", "-workers", "2"},
			changed: []string{"-count", strconv.Itoa(count), "-maxn", "160", "-seed", "8", "-shard-size", "8", "-workers", "2"},
			stall:   "25ms", records: count,
		},
		{
			name:    "directory",
			args:    []string{"-import-dir", tree, "-shard-size", "4", "-seed", "7"},
			changed: []string{"-import-dir", tree, "-shard-size", "5", "-seed", "7"},
			stall:   "40ms", records: files, dupes: 1, broken: 1,
		},
	}
	for _, src := range sources {
		if err := drillSource(d, filepath.Join(dir, src.name), src); err != nil {
			return fmt.Errorf("%s source: %w", src.name, err)
		}
	}
	return nil
}

func drillSource(d *drill.D, dir string, src source) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	gendata := func(env []string, store string, extra ...string) (string, error) {
		args := append(append([]string{}, src.args...), "-store", store)
		return d.Run("gendata", env, append(args, extra...)...)
	}

	// 1. Uninterrupted reference build — the bytes every other run must
	// reproduce.
	d.Step(src.name + ": reference build (uninterrupted)")
	refStore := filepath.Join(dir, "ref.store")
	out, err := gendata(nil, refStore)
	if err != nil {
		return fmt.Errorf("reference build: %v\n%s", err, out)
	}
	want := fmt.Sprintf("built %d records", src.records)
	if !strings.Contains(out, want) ||
		!strings.Contains(out, fmt.Sprintf("%d dupes skipped, %d quarantined", src.dupes, src.broken)) {
		return fmt.Errorf("reference build should report %q with %d dupes and %d quarantined:\n%s", want, src.dupes, src.broken, out)
	}

	// 2. The same build, slowed per matrix, SIGKILLed mid-run.
	// Three shard files on disk means at least two are journaled: the
	// journal write follows each publication before the next can start.
	d.Step(src.name + ": build with SIGKILL after >= 2 journaled shards")
	liveStore := filepath.Join(dir, "live.store")
	kill, err := d.Start(drill.Child{Bin: "gendata", Quiet: true,
		Args: append(append([]string{}, src.args...), "-store", liveStore),
		Env:  []string{"GENDATA_FAULT_INJECT=dataset.label.stall@" + src.stall}})
	if err != nil {
		return err
	}
	// Polled every 5ms, not at Await's pace: the kill has to land while
	// the build is still publishing.
	deadline := time.Now().Add(60 * time.Second)
	for len(shardFiles(liveStore)) < 3 {
		select {
		case <-kill.Done():
			return fmt.Errorf("build exited (%v) before it could be killed; increase the stall delay", kill.Err())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no shards published within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := kill.Kill(); err != nil {
		return fmt.Errorf("kill -9: %v", err)
	}
	if kill.Err() == nil {
		return fmt.Errorf("killed build exited cleanly — the kill landed too late to mean anything")
	}
	killed := len(shardFiles(liveStore))
	fmt.Printf("corpusdrill: %s: killed with %d shards published\n", src.name, killed)

	// 3. Resume onto a full disk: the first publication fails, the
	// build aborts resumably, and nothing already published is lost.
	d.Step(src.name + ": resume with the disk full")
	out, err = gendata([]string{"GENDATA_FAULT_INJECT=dataset.store.writefail:1"}, liveStore, "-resume")
	if err == nil || !strings.Contains(out, "free space and rerun with -resume") {
		return fmt.Errorf("a failed shard write should abort with the resume hint (err %v):\n%s", err, out)
	}
	if n := len(shardFiles(liveStore)); n < 2 || n > killed {
		return fmt.Errorf("aborted store holds %d shards, want between 2 and the %d on disk at the kill", n, killed)
	}

	// 4. Resume. Must reuse the published shards and converge on the
	// reference bytes.
	d.Step(src.name + ": resume after kill")
	out, err = gendata(nil, liveStore, "-resume")
	if err != nil {
		return fmt.Errorf("resume: %v\n%s", err, out)
	}
	n, err := resumedShards(out)
	if err != nil {
		return fmt.Errorf("resume output unparsable: %v\n%s", err, out)
	}
	if n < 2 {
		return fmt.Errorf("resume reused %d shards, want >= 2 — it started over\n%s", n, out)
	}
	if err := compareStores(refStore, liveStore); err != nil {
		return fmt.Errorf("resumed store diverged from the uninterrupted one: %v", err)
	}
	fmt.Printf("corpusdrill: %s: resume reused %d shards, store is byte-identical to the reference\n", src.name, n)

	// 5. A resume with a changed flag is refused, not mixed in and not
	// allowed to reset the store.
	d.Step(src.name + ": resume with a changed flag")
	out, err = d.Run("gendata", nil, append(append([]string{}, src.changed...), "-store", liveStore, "-resume")...)
	if err == nil || !strings.Contains(out, "different source or with different flags") {
		return fmt.Errorf("resume with changed flags should be refused (err %v):\n%s", err, out)
	}
	if err := compareStores(refStore, liveStore); err != nil {
		return fmt.Errorf("refused resume disturbed the store: %v", err)
	}

	// 6. Quarantine: three injected per-matrix panics must not abort the
	// build, and must leave forensics on disk.
	d.Step(src.name + ": quarantine drill (3 injected label panics)")
	qStore := filepath.Join(dir, "quarantine.store")
	out, err = gendata([]string{"GENDATA_FAULT_INJECT=dataset.label.panic:3"}, qStore)
	if err != nil {
		return fmt.Errorf("quarantine build aborted: %v\n%s", err, out)
	}
	if !strings.Contains(out, fmt.Sprintf("quarantined %d matrices", 3+src.broken)) {
		return fmt.Errorf("expected %d quarantined matrices in output:\n%s", 3+src.broken, out)
	}
	qb, err := os.ReadFile(filepath.Join(qStore, "quarantine", "quarantine.jsonl"))
	if err != nil {
		return fmt.Errorf("quarantine log: %v", err)
	}
	if lines := strings.Count(string(qb), "\n"); lines != 3+src.broken {
		return fmt.Errorf("quarantine.jsonl has %d entries, want %d", lines, 3+src.broken)
	}
	if strings.Count(string(qb), `"panic":true`) != 3 || !(strings.Contains(string(qb), `"spec":`) || strings.Contains(string(qb), `"file":`)) {
		return fmt.Errorf("quarantine.jsonl entries missing forensics: %s", qb)
	}
	if _, err := os.Stat(filepath.Join(qStore, "report.jsonl")); err != nil {
		return fmt.Errorf("build report: %v", err)
	}

	// 7. Corrupt a shard, then require training and the held-out
	// evaluation to survive on salvage rather than abort.
	d.Step(src.name + ": corrupting one shard, training through salvage")
	if err := flipShardByte(filepath.Join(liveStore, "corpus-00001.bin")); err != nil {
		return err
	}
	model := filepath.Join(dir, "model.gob")
	out, err = d.Run("train", nil,
		"-dataset-in", liveStore, "-out", model,
		"-epochs", "2", "-repsize", "16", "-repbins", "8", "-seed", "7")
	if err != nil {
		return fmt.Errorf("train over a corrupt store aborted: %v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(liveStore, "salvage.json")); err != nil {
		return fmt.Errorf("salvage report not written: %v", err)
	}
	quarantined, _ := filepath.Glob(filepath.Join(liveStore, "quarantine", "*.corrupt"))
	if len(quarantined) == 0 {
		return fmt.Errorf("corrupt shard original was not quarantined")
	}

	d.Step(src.name + ": corrupting another shard, held-out evaluation through salvage")
	if err := flipShardByte(filepath.Join(liveStore, "corpus-00002.bin")); err != nil {
		return err
	}
	report := filepath.Join(dir, "heldout.json")
	out, err = d.Run("experiments", nil,
		"-run", "heldout", "-dataset", liveStore, "-model", model, "-report", report, "-seed", "7")
	if err != nil {
		return fmt.Errorf("heldout evaluation over a corrupt store aborted: %v\n%s", err, out)
	}
	var rep struct {
		Records  int     `json:"records"`
		Accuracy float64 `json:"accuracy"`
		Salvaged bool    `json:"salvaged"`
	}
	rb, err := os.ReadFile(report)
	if err != nil {
		return fmt.Errorf("held-out report: %v", err)
	}
	if err := json.Unmarshal(rb, &rep); err != nil {
		return fmt.Errorf("held-out report unparsable: %v\n%s", err, rb)
	}
	if rep.Records == 0 {
		return fmt.Errorf("held-out report evaluated zero records:\n%s", rb)
	}
	if !rep.Salvaged {
		return fmt.Errorf("held-out report does not record the salvage:\n%s", rb)
	}
	fmt.Printf("corpusdrill: %s: held-out evaluation survived salvage (%d records, accuracy %.2f)\n",
		src.name, rep.Records, rep.Accuracy)
	return nil
}

// writeFixtureTree lays out the directory source: n distinct matrices
// in nested directories, one byte-identical duplicate under a
// different name, and one malformed file.
func writeFixtureTree(dir string, n int) error {
	if err := os.MkdirAll(filepath.Join(dir, "group1"), 0o755); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		size := 40 + i
		m := synthgen.Random(size, size, size*8, int64(i+1))
		name := fmt.Sprintf("m%03d.mtx", i)
		if i%2 == 0 {
			name = filepath.Join("group1", name)
		}
		if err := sparse.WriteMatrixMarketFile(filepath.Join(dir, name), m); err != nil {
			return err
		}
	}
	dup := synthgen.Random(43, 43, 43*8, 4)
	if err := sparse.WriteMatrixMarketFile(filepath.Join(dir, "zz_duplicate.mtx"), dup); err != nil {
		return err
	}
	bad := "%%MatrixMarket matrix coordinate real general\n9 9 4\n1 1 1.0\n2 2"
	// Both odd files sort after the healthy ones, so the quarantine
	// drill's injected panics (which hit the first matrices labelled)
	// never land on them and the expected counts are exact.
	return os.WriteFile(filepath.Join(dir, "zz_broken.mtx"), []byte(bad), 0o644)
}

func shardFiles(store string) []string {
	names, _ := filepath.Glob(filepath.Join(store, "corpus-0*.bin"))
	return names
}

// compareStores requires byte-identical shard, manifest and dedup
// files between two store directories.
func compareStores(ref, got string) error {
	names := shardFiles(ref)
	if len(names) == 0 {
		return fmt.Errorf("no shards in %s", ref)
	}
	// A resumed store must not hold extra shards either.
	if n := len(shardFiles(got)); n != len(names) {
		return fmt.Errorf("%d shards, reference has %d", n, len(names))
	}
	files := []string{"corpus-manifest.bin", "corpus-dedup.bin"}
	for _, n := range names {
		files = append(files, filepath.Base(n))
	}
	for _, name := range files {
		a, err := sha256File(filepath.Join(ref, name))
		if err != nil {
			return err
		}
		b, err := sha256File(filepath.Join(got, name))
		if err != nil {
			return err
		}
		if a != b {
			return fmt.Errorf("%s differs", name)
		}
	}
	return nil
}

// flipShardByte corrupts one byte inside a shard's payload region.
func flipShardByte(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(raw) < 64 {
		return fmt.Errorf("%s suspiciously small (%d bytes)", path, len(raw))
	}
	raw[len(raw)/2] ^= 0x20
	return os.WriteFile(path, raw, 0o644)
}

var resumedRE = regexp.MustCompile(`\((\d+) resumed`)

// resumedShards parses the build-report line gendata prints, e.g.
// "built 240 records from 240 items in 30 shards (12 resumed at item
// 96, ...)".
func resumedShards(out string) (int, error) {
	m := resumedRE.FindStringSubmatch(out)
	if m == nil {
		return 0, fmt.Errorf("no build report line found")
	}
	return strconv.Atoi(m[1])
}

func sha256File(path string) ([32]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}
