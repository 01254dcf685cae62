package dataset

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/durable"
	"repro/internal/machine"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// The one resumable corpus build. A store is filled from a source —
// synthgen specs (GenerateStore) or a MatrixMarket tree (IngestDir) —
// by labelling the source's items in parallel and appending them to
// the store in walk order. Every time Append publishes a shard, the
// build journal pins that shard to the walk position, so a SIGKILL (or
// an ENOSPC abort) loses at most one shard's worth of labelling and
// Config.Resume picks the walk up where the journal says; because a
// record is a pure function of its walk position, the resumed store is
// byte-identical to an uninterrupted one. An item that is malformed,
// oversized, panics the reader or the labeler, or exceeds the per-item
// deadline is quarantined — logged and skipped — never allowed to
// abort a multi-day build.

// buildJournalFile is the progress journal inside the store directory,
// rewritten atomically after every shard publication.
const buildJournalFile = "build-journal.json"

// Side files for the operator: one JSON line per quarantined item
// (rewritten whole at the end of every build, so resumes never
// duplicate entries) and one JSON line appended per completed build.
const (
	quarantineLogFile = "quarantine.jsonl" // under <store>/quarantine/
	reportLogFile     = "report.jsonl"
)

const buildJournalVersion = 1

// buildJournal is the on-disk resume state.
type buildJournal struct {
	Version int `json:"version"`
	// ConfigHash pins the journal to everything that shapes the store's
	// bytes (see buildHash); a resume with a different hash is refused.
	ConfigHash  uint64            `json:"config_hash"`
	Shards      []shardMark       `json:"shards"`
	Quarantined []QuarantineEntry `json:"quarantined,omitempty"`
	Complete    bool              `json:"complete"`
}

// shardMark pins one published shard to the walk position — the rewind
// points for resume.
type shardMark struct {
	ItemsDone int `json:"items_done"` // source items fully consumed when the shard landed
	Records   int `json:"records"`    // records in the shard
	Dupes     int `json:"dupes"`      // cumulative dupe count at publication
}

// GenerateStore builds the cfg.Count-spec synthetic corpus into a
// corpus store at storeDir — GenerateCtx's records, in the same order,
// written crash-safely. See the comment at the top of this file for
// the failure contract.
func GenerateStore(ctx context.Context, storeDir string, cfg Config, lab *machine.Labeler) (*BuildReport, error) {
	cfg.defaults()
	return buildStore(ctx, storeDir, cfg, lab, newSpecSource(cfg))
}

// IngestDir builds a corpus store at storeDir from every .mtx file
// under srcDir (recursively, sorted by path for determinism), each
// read through the resource-governed reader under cfg.Limits.
// Byte-identical matrices arriving under two names land once: the
// store's fingerprint index skips the later one.
func IngestDir(ctx context.Context, srcDir, storeDir string, cfg Config, lab *machine.Labeler) (*BuildReport, error) {
	cfg.defaults()
	src, err := newDirSource(srcDir, cfg.Limits)
	if err != nil {
		return nil, err
	}
	return buildStore(ctx, storeDir, cfg, lab, src)
}

func buildStore(ctx context.Context, storeDir string, cfg Config, lab *machine.Labeler, src source) (*BuildReport, error) {
	start := time.Now()
	b := &build{cfg: cfg, lab: lab, src: src}
	j, store, healed, err := openBuild(storeDir, lab, buildHash(cfg, lab, src), cfg)
	if err != nil {
		return nil, err
	}
	b.quarantined = j.Quarantined
	resumedShards, resumedAt := len(j.Shards), j.itemsDone()
	total := (src.len() + cfg.ShardSize - 1) / cfg.ShardSize
	if m := cfg.Metrics; m != nil {
		m.ShardsTotal.SetInt(uint64(total))
		m.ShardsDone.SetInt(uint64(resumedShards))
		m.Resumed.SetInt(uint64(resumedShards))
		m.Healed.SetInt(uint64(healed))
	}

	save := func() error {
		j.Quarantined = b.quarantined
		return j.write(storeDir)
	}
	// mark runs after every append: when a shard has landed it pins the
	// shard to the walk position and persists the journal. Everything
	// up to itemsDone is re-derivable from that mark alone.
	published := store.NumRecords()
	mark := func(itemsDone int) error {
		if store.NumShards() == len(j.Shards) {
			return nil
		}
		landed := store.NumRecords() - published
		published = store.NumRecords()
		j.Shards = append(j.Shards, shardMark{ItemsDone: itemsDone, Records: landed, Dupes: store.Dupes()})
		if err := save(); err != nil {
			return err
		}
		if m := cfg.Metrics; m != nil {
			m.ShardsDone.SetInt(uint64(len(j.Shards)))
			m.Records.Add(uint64(landed))
			m.LabelsPerSec.Set(float64(published) / time.Since(start).Seconds())
		}
		if cfg.OnShard != nil {
			cfg.OnShard(len(j.Shards), total)
		}
		return nil
	}

	err = b.run(ctx, resumedAt, func(i int, it *labelled) error {
		// A failed publication (ENOSPC, injected write fault) leaves the
		// manifest not naming the shard and the journal pointing at the
		// last good one: abort cleanly, resume later.
		if _, err := store.Append(it.rec, it.fp, it.rec.mat); err != nil {
			return fmt.Errorf("dataset: build: %w", err)
		}
		return mark(i + 1)
	})
	if err == nil {
		if err = store.Flush(); err != nil {
			err = fmt.Errorf("dataset: build: final flush: %w", err)
		}
	}
	if err == nil {
		err = mark(src.len())
	}
	if err == nil {
		j.Complete = true
		err = save()
	}

	report := b.report(start, store.NumRecords())
	report.Shards, report.Dupes = store.NumShards(), store.Dupes()
	report.ResumedShards, report.ResumedAt, report.HealedShards = resumedShards, resumedAt, healed
	// The quarantine log is written on every exit: the operator of an
	// aborted build needs it most.
	writeQuarantineLog(storeDir, b.quarantined)
	if err != nil {
		return report, err
	}
	if report.Records == 0 {
		return report, fmt.Errorf("%w: no item of the source could be labelled (%d quarantined)", ErrTooManyQuarantined, len(b.quarantined))
	}
	appendReport(storeDir, report)
	return report, nil
}

// openBuild opens or creates the store with its journal. With
// cfg.Resume it rewinds store and journal to their longest mutually
// consistent shard prefix, so an orphan shard (published, journal
// write lost to a crash) or a salvage-degraded shard is simply
// regenerated — that rewind is what makes resume byte-identical. The
// int is how many shards salvage had to repair on the way.
func openBuild(storeDir string, lab *machine.Labeler, hash uint64, cfg Config) (*buildJournal, *CorpusStore, int, error) {
	fresh := func() (*buildJournal, *CorpusStore, int, error) {
		s, err := CreateStore(storeDir, lab.Platform.Name, lab.FormatSet(), cfg.ShardSize)
		if err != nil {
			return nil, nil, 0, err
		}
		return &buildJournal{Version: buildJournalVersion, ConfigHash: hash}, s, 0, nil
	}
	if !cfg.Resume {
		return fresh()
	}
	j, err := readBuildJournal(storeDir)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Killed before the first shard, or a new directory: resume
		// degenerates to a fresh build.
		return fresh()
	case err != nil:
		return nil, nil, 0, err
	case j.ConfigHash != hash:
		// Mixing shards from two configurations would silently assemble
		// a corpus no single run could have produced.
		return nil, nil, 0, fmt.Errorf("%w: %s was built from a different source or with different flags (platform, noise, seed, shard size and the spec list or file tree must match); use a fresh store directory, or drop -resume to rebuild this one",
			ErrMismatch, storeDir)
	}
	s, salvage, err := OpenStore(storeDir)
	if err != nil {
		return fresh() // journal without a usable store: nothing to resume
	}
	// Longest consistent prefix: journal mark i must agree with the
	// store's i'th shard on index and record count.
	prefix := 0
	for prefix < len(j.Shards) && prefix < len(s.man.Shards) {
		if e := s.man.Shards[prefix]; e.Index != prefix || e.Records != j.Shards[prefix].Records {
			break
		}
		prefix++
	}
	j.Shards = j.Shards[:prefix]
	dupes := 0
	if prefix > 0 {
		dupes = j.Shards[prefix-1].Dupes
	}
	if err := s.TruncateShards(prefix, dupes); err != nil {
		return nil, nil, 0, err
	}
	// Quarantine entries past the rewind point will be rediscovered.
	resumeAt := j.itemsDone()
	j.Quarantined = slices.DeleteFunc(j.Quarantined, func(q QuarantineEntry) bool { return q.Index >= resumeAt })
	j.Complete = false
	healed := 0
	if salvage != nil {
		healed = len(salvage.Shards)
	}
	return j, s, healed, nil
}

// itemsDone is the walk position the journal's last shard covers.
func (j *buildJournal) itemsDone() int {
	if len(j.Shards) == 0 {
		return 0
	}
	return j.Shards[len(j.Shards)-1].ItemsDone
}

// buildHash condenses everything that shapes the store's bytes:
// platform, format set, labeler noise and seed, shard size and the
// source's identity.
func buildHash(cfg Config, lab *machine.Labeler, src source) uint64 {
	b, _ := json.Marshal(struct {
		Platform   string
		Formats    []sparse.Format
		NoiseSigma float64
		LabelSeed  int64
		ShardSize  int
		Source     any
	}{lab.Platform.Name, lab.FormatSet(), lab.NoiseSigma, lab.Seed, cfg.ShardSize, src.identity()})
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func readBuildJournal(storeDir string) (*buildJournal, error) {
	b, err := os.ReadFile(filepath.Join(storeDir, buildJournalFile))
	if err != nil {
		return nil, err
	}
	var j buildJournal
	if err := json.Unmarshal(b, &j); err != nil {
		return nil, fmt.Errorf("%w: build journal: %v", ErrCorrupt, err)
	}
	if j.Version != buildJournalVersion {
		return nil, fmt.Errorf("%w: build journal version %d, supported %d", ErrCorrupt, j.Version, buildJournalVersion)
	}
	return &j, nil
}

func (j *buildJournal) write(storeDir string) error {
	b, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return fmt.Errorf("dataset: build journal: %w", err)
	}
	if err := writeSideFile(filepath.Join(storeDir, buildJournalFile), append(b, '\n')); err != nil {
		return fmt.Errorf("%w: build journal: %v", ErrNoSpace, err)
	}
	return nil
}

// writeQuarantineLog rewrites quarantine/quarantine.jsonl for operator
// forensics. Best-effort: a full disk must not fail a completed build.
func writeQuarantineLog(storeDir string, qs []QuarantineEntry) {
	path := filepath.Join(storeDir, storeQuarantine, quarantineLogFile)
	if len(qs) == 0 {
		os.Remove(path) // a previous build's entries are not this one's
		return
	}
	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	for _, q := range qs {
		enc.Encode(q)
	}
	if os.MkdirAll(filepath.Dir(path), 0o755) == nil {
		writeSideFile(path, []byte(buf.String()))
	}
}

// appendReport appends one JSON line describing the completed build.
// Best-effort, like the quarantine log.
func appendReport(storeDir string, r *BuildReport) {
	f, err := os.OpenFile(filepath.Join(storeDir, reportLogFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return
	}
	defer f.Close()
	json.NewEncoder(f).Encode(r)
}

// dirSource is a MatrixMarket tree: every .mtx under the root, sorted
// by relative path — the order contract resume and byte-identity
// depend on.
type dirSource struct {
	root   string
	files  []string // relative to root, slash-separated; the journaled identity
	limits sparse.Limits
}

func newDirSource(root string, limits sparse.Limits) (*dirSource, error) {
	if limits == (sparse.Limits{}) {
		limits = sparse.DefaultLimits()
	}
	s := &dirSource{root: root, limits: limits}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(d.Name(), ".mtx") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		s.files = append(s.files, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("dataset: ingest: walking %s: %w", root, err)
	}
	if len(s.files) == 0 {
		return nil, fmt.Errorf("dataset: ingest: no .mtx files under %s", root)
	}
	sort.Strings(s.files)
	return s, nil
}

func (s *dirSource) len() int { return len(s.files) }

func (s *dirSource) identity() any {
	return struct {
		Limits sparse.Limits
		Files  []string
	}{s.limits, s.files}
}

func (s *dirSource) load(ctx context.Context, i int) (*sparse.COO, synthgen.Spec, error) {
	m, err := readMatrixFile(ctx, filepath.Join(s.root, filepath.FromSlash(s.files[i])), s.limits)
	return m, synthgen.Spec{Family: importedFamily}, err
}

func (s *dirSource) name(i int, q *QuarantineEntry) { q.File = s.files[i] }

// readMatrixFile reads one file through the resource-governed reader,
// containing reader panics — one poison file must cost one skip, not
// the run.
func readMatrixFile(ctx context.Context, path string, lim sparse.Limits) (m *sparse.COO, err error) {
	defer func() {
		if r := recover(); r != nil {
			m, err = nil, fmt.Errorf("reader panic: %v", r)
		}
	}()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sparse.ReadMatrixMarketLimits(ctx, f, lim)
}

// writeSideFile durably publishes one of the store's non-enveloped
// side files.
func writeSideFile(path string, data []byte) error {
	return durable.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
