package feedback

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"

	"repro/internal/dataset"
	"repro/internal/machine"
	"repro/internal/nn"
	"repro/internal/sparse"
)

// CollectorConfig parameterises a Collector.
type CollectorConfig struct {
	// SegmentDir is the feedback log directory rotated segments are
	// folded from (a Logger's Dir).
	SegmentDir string
	// CorpusPath is the online corpus — a regular internal/dataset
	// corpus store directory, openable by train/migrate like any
	// gendata store. The captured patterns are stored with their
	// records, so a fresh process rebuilds the corpus' matrices from
	// the store alone. CorpusPath+".seen" keeps the fingerprints of
	// evicted records, which must outlive them in the dedup set.
	CorpusPath string
	// Labeler labels folded patterns with the platform cost model —
	// the same labeling path the training corpus used, so online and
	// offline labels are mutually consistent.
	Labeler *machine.Labeler
	// MaxRecords caps the corpus, evicting oldest-first (default 4096).
	MaxRecords int
	// Log receives operational lines (nil = silent).
	Log io.Writer
}

func (c *CollectorConfig) defaults() error {
	if c.SegmentDir == "" || c.CorpusPath == "" {
		return fmt.Errorf("feedback: collector needs SegmentDir and CorpusPath")
	}
	if c.Labeler == nil {
		return fmt.Errorf("feedback: collector needs a labeler")
	}
	if c.MaxRecords <= 0 {
		c.MaxRecords = 4096
	}
	return nil
}

// CollectReport summarises one fold pass.
type CollectReport struct {
	// Segments is how many rotated segments were folded (and removed).
	Segments int
	// Entries are every decoded entry, in capture order — the drift
	// detector's input (patterned or not).
	Entries []Entry
	// Folded counts new unique patterns added to the corpus.
	Folded int
	// Duplicates counts entries whose fingerprint was already folded.
	Duplicates int
	// NoPattern counts entries too large to carry a pattern.
	NoPattern int
	// SkippedLines counts torn or corrupt JSONL lines (the crash-safety
	// escape valve: a partial final line from a killed replica is data
	// loss of one entry, never a poisoned fold).
	SkippedLines int
	// Records is the corpus size after the fold.
	Records int
}

// Collector folds rotated feedback segments into the online corpus:
// dedup by fingerprint, label with the platform cost model, append
// record and pattern to the corpus store, publish, then delete the
// folded segments. Publication happens before deletion, so a crash
// between the two can only re-fold — and the store's dedup index makes
// re-folding idempotent.
type Collector struct {
	cfg   CollectorConfig
	store *dataset.CorpusStore
	// evicted holds the fingerprints of records the cap has dropped;
	// with the store's own index it is the dedup set.
	evicted map[uint64]bool
}

// NewCollector builds a collector, resuming from a previously
// persisted corpus when one exists. A corrupt or mismatched corpus is
// discarded with a log line rather than wedging the loop — the online
// corpus is rebuilt from traffic, not hand-curated.
func NewCollector(cfg CollectorConfig) (*Collector, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	c := &Collector{cfg: cfg}
	if err := c.open(); err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			c.logf("feedback: discarding persisted online corpus: %v", err)
		}
		if err := c.reset(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *Collector) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		fmt.Fprintf(c.cfg.Log, format+"\n", args...)
	}
}

// Side paths of the corpus store: the evicted-fingerprint set, and the
// two directories an eviction's rewrite passes through.
func (c *Collector) seenPath() string    { return c.cfg.CorpusPath + ".seen" }
func (c *Collector) compactPath() string { return c.cfg.CorpusPath + ".compact" }
func (c *Collector) oldPath() string     { return c.cfg.CorpusPath + ".old" }

// open resumes collector state from a previous process' store. A
// missing store reports fs.ErrNotExist; anything else unreadable is an
// error the constructor downgrades to a fresh start.
func (c *Collector) open() error {
	path := c.cfg.CorpusPath
	if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
		// Either the first run, or an eviction was killed between its
		// two renames and the rewritten store is waiting beside the path.
		if err := os.Rename(c.compactPath(), path); err != nil {
			return fs.ErrNotExist
		}
	}
	s, salvage, err := dataset.OpenValidatedStore(path, c.cfg.Labeler)
	if err != nil {
		return err
	}
	if salvage != nil {
		c.logf("feedback: online corpus needed salvage: %d shard(s) repaired, %d record(s) dropped", len(salvage.Shards), len(salvage.DroppedRecords))
	}
	fps, err := dataset.ReadFingerprintSet(c.seenPath(), nn.EnvelopeFeedbackSeen)
	if err != nil && !errors.Is(err, fs.ErrNotExist) { // missing: nothing evicted yet
		return fmt.Errorf("evicted-fingerprint set: %w", err)
	}
	evicted := make(map[uint64]bool, len(fps))
	for _, fp := range fps {
		evicted[fp] = true
	}
	c.store, c.evicted = s, evicted
	return nil
}

// reset starts an empty corpus, clearing whatever was at the path.
func (c *Collector) reset() error {
	for _, p := range []string{c.cfg.CorpusPath, c.compactPath(), c.oldPath(), c.seenPath()} {
		if err := os.RemoveAll(p); err != nil {
			return fmt.Errorf("feedback: %w", err)
		}
	}
	lab := c.cfg.Labeler
	s, err := dataset.CreateStore(c.cfg.CorpusPath, lab.Platform.Name, lab.FormatSet(), 0)
	if err != nil {
		return fmt.Errorf("feedback: %w", err)
	}
	c.store, c.evicted = s, map[uint64]bool{}
	return nil
}

// Records reports the current corpus size.
func (c *Collector) Records() int { return c.store.NumRecords() }

// Collect runs one fold pass over the rotated segments.
func (c *Collector) Collect() (*CollectReport, error) {
	segs, err := SegmentFiles(c.cfg.SegmentDir)
	if err != nil {
		return nil, fmt.Errorf("feedback: %w", err)
	}
	rep := &CollectReport{}
	for _, seg := range segs {
		if err := c.foldSegment(seg, rep); err != nil {
			return nil, err
		}
		rep.Segments++
	}
	if rep.Folded > 0 {
		if err := c.store.Flush(); err != nil {
			return nil, fmt.Errorf("feedback: persisting online corpus: %w", err)
		}
	}
	// Segments are only removed after a successful publication (or when
	// they contributed nothing new).
	for _, seg := range segs {
		if err := os.Remove(seg); err != nil {
			c.logf("feedback: removing folded segment: %v", err)
		}
	}
	if c.store.NumRecords() > c.cfg.MaxRecords {
		if err := c.evict(); err != nil {
			return nil, err
		}
	}
	rep.Records = c.store.NumRecords()
	return rep, nil
}

func (c *Collector) foldSegment(path string, rep *CollectReport) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("feedback: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 8<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			rep.SkippedLines++
			continue
		}
		rep.Entries = append(rep.Entries, e)
		switch {
		case !e.HasPattern():
			rep.NoPattern++
		case c.evicted[e.Fingerprint] || c.store.Contains(e.Fingerprint):
			rep.Duplicates++
		default:
			m, err := sparse.UnitCOO(e.Stats.Rows, e.Stats.Cols, e.PatRows, e.PatCols)
			if err != nil {
				rep.SkippedLines++ // a pattern outside its declared shape is a corrupt line
				continue
			}
			label, times := c.cfg.Labeler.Label(e.Stats, e.Fingerprint)
			rec := dataset.Record{ID: e.Fingerprint, Stats: e.Stats, Label: label, Times: times}
			if _, err := c.store.Append(rec, e.Fingerprint, m); err != nil {
				return fmt.Errorf("feedback: persisting online corpus: %w", err)
			}
			rep.Folded++
		}
	}
	return sc.Err()
}

// Corpus materialises the online corpus as a live dataset, every
// record carrying its rebuilt pattern so Record.Matrix() works — the
// form selector training consumes.
func (c *Collector) Corpus() (*dataset.Dataset, error) {
	if c.store.NumRecords() == 0 {
		return nil, fmt.Errorf("feedback: online corpus is empty")
	}
	d, err := c.store.LoadStoreAll()
	if err != nil {
		return nil, fmt.Errorf("feedback: %w", err)
	}
	return d, nil
}

// evict drops the oldest records past the cap. The store only grows,
// so eviction rewrites it: the evicted fingerprints are added to the
// .seen set first (a crash after that merely remembers a few
// fingerprints the store also knows), the survivors are written to a
// sibling store, and two renames swap it in — open finishes the swap
// if the process dies between them.
func (c *Collector) evict() error {
	d, err := c.store.LoadStoreAll()
	if err != nil {
		return fmt.Errorf("feedback: %w", err)
	}
	// n can be short of what the manifest counted: records the store
	// refused to hand out as invalid are dropped by the rewrite too.
	n := max(len(d.Records)-c.cfg.MaxRecords, 0)
	for _, r := range d.Records[:n] {
		c.evicted[r.ID] = true
	}
	d.Records = d.Records[n:]
	if err := dataset.WriteFingerprintSet(c.seenPath(), nn.EnvelopeFeedbackSeen, c.evicted); err != nil {
		return fmt.Errorf("feedback: persisting evicted fingerprints: %w", err)
	}

	path, tmp, old := c.cfg.CorpusPath, c.compactPath(), c.oldPath()
	if err := errors.Join(os.RemoveAll(tmp), os.RemoveAll(old)); err != nil {
		return fmt.Errorf("feedback: %w", err)
	}
	if _, err := dataset.WriteStore(tmp, d, 0); err != nil {
		return fmt.Errorf("feedback: rewriting online corpus: %w", err)
	}
	if err := os.Rename(path, old); err != nil {
		return fmt.Errorf("feedback: swapping in rewritten corpus: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("feedback: swapping in rewritten corpus: %w", err)
	}
	os.RemoveAll(old) // left for the next eviction if this fails
	if c.store, _, err = dataset.OpenStore(path); err != nil {
		return fmt.Errorf("feedback: %w", err)
	}
	c.logf("feedback: online corpus capped, %d oldest records evicted", n)
	return nil
}
