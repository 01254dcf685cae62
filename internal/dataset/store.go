package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
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
	"sync"

	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/sparse"
)

// CorpusStore is the one on-disk corpus: a sharded, failure-tolerant
// directory every producer writes (gendata from either source, train
// -dataset, the feedback collector) and every consumer opens. The
// paper trains on ~9,200 SuiteSparse matrices plus augmentation;
// millions are the target, so nothing here needs the corpus in RAM.
// Layout of a store directory:
//
//	corpus-manifest.bin  envelope(EnvelopeCorpusManifest, JSON manifest)
//	corpus-00000.bin     envelope(EnvelopeCorpusShard, framed records)
//	corpus-00001.bin     ...
//	corpus-dedup.bin     envelope(EnvelopeCorpusIndex, fingerprint set)
//	build-journal.json   resume state of the build that filled it (build.go)
//	report.jsonl         one line per completed build
//	salvage.json         report of the last open that had to salvage
//	quarantine/          corrupt originals, rejected-record log, and the
//	                     build's quarantine.jsonl of skipped source items
//
// Each shard's envelope payload is a chain of CRC-framed records
// (durable.AppendFrame, header frame first), so corruption is
// survivable at two levels: the envelope CRC detects a damaged shard
// cheaply, and the per-record frames let salvage recover every record
// the damage missed. Opening a
// store never aborts on a bad shard — valid records are recovered,
// the corrupt original is moved to quarantine/, and a salvage report
// is written (see salvage.go).
//
// Writes are atomic (durable.WriteEnvelopeFile) and
// manifest-last: a shard is only trusted once the manifest names it,
// so a crash between the two costs one shard rewrite, never a torn
// store. A cross-shard fingerprint index deduplicates appends — the
// same SuiteSparse matrix arriving from two archives lands once.
const (
	storeManifestFile = "corpus-manifest.bin"
	storeDedupFile    = "corpus-dedup.bin"
	storeSalvageFile  = "salvage.json"
	storeQuarantine   = "quarantine"
	storeRecordLog    = "records.jsonl"
)

func storeShardFile(index int) string { return fmt.Sprintf("corpus-%05d.bin", index) }

// ErrNoSpace reports a failed free-space preflight or a write error on
// the shard publication path. The store is left consistent (the
// manifest never names the failed shard), so the operation can resume
// once space is available.
var ErrNoSpace = errors.New("dataset: store write failed (disk full or write error)")

// ErrStore reports a store whose directory cannot serve as a corpus
// store at all (unreadable directory, missing manifest with no shards
// to rebuild from).
var ErrStore = errors.New("dataset: not a corpus store")

// storeManifest is the store's table of contents.
type storeManifest struct {
	Version   int
	Platform  string
	Formats   []sparse.Format
	ShardSize int
	Records   int
	Dupes     int // appends skipped by the dedup index
	Shards    []storeShardEntry
}

// storeShardEntry names one published shard and its record count.
// The shard's integrity is its envelope's payload CRC and its frames'
// CRCs; a manifest written with a per-shard CRC key still decodes, the
// key is ignored.
type storeShardEntry struct {
	Index   int
	Records int
}

// storeRecord is the framed per-record wire form. The pattern arrays
// are present for imported matrices (which no spec can regenerate);
// representations are position-only, so the pattern alone rebuilds a
// training-equivalent matrix in a fresh process.
type storeRecord struct {
	FP         uint64 // dedup fingerprint
	W          wireRecord
	HasPattern bool
	PatRows    []int32
	PatCols    []int32
}

// storeShardHeader is frame zero of every shard.
type storeShardHeader struct {
	Version  int
	Platform string
	Formats  []sparse.Format
	Index    int
	Count    int
}

const storeVersion = 1

// gob assigns type IDs from a process-global counter in first-encounter
// order, and every Encoder stream embeds those global IDs. Without
// pinning, shard bytes would depend on what happened to be gob-encoded
// earlier in the process, breaking the guarantee that interrupted and
// uninterrupted builds write checksum-identical files. Encoding zero
// values at init allocates the wire types' IDs before any code path can
// race it. The first value has the shape of the retired monolithic
// dataset form, which used to be pinned ahead of the store types: its
// IDs stay allocated so that stores written today are byte-identical to
// stores written before it was deleted (TestStoreFormatFrozen).
func init() {
	gob.NewEncoder(io.Discard).Encode(struct {
		Version  int
		Platform string
		Formats  []sparse.Format
		Records  []wireRecord
	}{})
	gob.NewEncoder(io.Discard).Encode(storeRecord{})
	gob.NewEncoder(io.Discard).Encode(storeShardHeader{})
}

// CorpusStore provides append and shard-at-a-time read access to one
// store directory. Appends buffer to ShardSize records and publish
// full shards atomically; readers iterate one shard at a time, so peak
// memory is bounded by shard size, not corpus size.
type CorpusStore struct {
	dir string

	mu   sync.Mutex
	man  storeManifest
	seen map[uint64]bool // cross-shard dedup index
	buf  []storeRecord   // records awaiting the next shard flush
}

// CreateStore initialises dir as an empty corpus store for one
// platform's format set. An existing store in dir is reset, build
// journal included — its shard marks describe shards that are gone.
func CreateStore(dir, platform string, formats []sparse.Format, shardSize int) (*CorpusStore, error) {
	if shardSize <= 0 {
		shardSize = 256
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("dataset: store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if name == storeManifestFile || name == storeDedupFile || name == storeSalvageFile ||
			name == buildJournalFile || strings.HasPrefix(name, "corpus-") {
			os.Remove(filepath.Join(dir, name))
		}
	}
	s := &CorpusStore{
		dir:  dir,
		man:  storeManifest{Version: storeVersion, Platform: platform, Formats: formats, ShardSize: shardSize},
		seen: map[uint64]bool{},
	}
	if err := s.writeManifest(); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenStore opens an existing store, validating every shard the
// manifest names and salvaging any that fail (see salvage.go). The
// returned report is nil when the store opened clean; when salvage
// ran, the report has also been written to <dir>/salvage.json. A
// missing or corrupt manifest is itself salvageable: the manifest is
// rebuilt from whatever shard files validate. The open fails only on a
// directory that is no store at all (ErrStore) or one whose damage
// left salvage nothing to recover (ErrCorrupt).
func OpenStore(dir string) (*CorpusStore, *SalvageReport, error) {
	fi, err := os.Stat(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %s: %v", ErrStore, dir, err)
	}
	if !fi.IsDir() {
		return nil, nil, fmt.Errorf("%w: %s is not a directory", ErrStore, dir)
	}
	s := &CorpusStore{dir: dir, seen: map[uint64]bool{}}
	report := &SalvageReport{Store: dir}

	man, err := readStoreManifest(filepath.Join(dir, storeManifestFile))
	switch {
	case err == nil:
		s.man = *man
	case errors.Is(err, fs.ErrNotExist):
		report.ManifestRebuilt = true
	default:
		// Present but untrustworthy: rebuild from the shards, which are
		// individually self-validating.
		report.ManifestRebuilt = true
		report.ManifestError = err.Error()
	}
	if s.man.Version == 0 {
		s.man = storeManifest{Version: storeVersion, ShardSize: 256}
	}

	// The shard set to examine: everything the manifest names plus any
	// orphan corpus-*.bin present on disk (published shard whose
	// manifest update was lost to a crash).
	indices := map[int]bool{}
	for _, e := range s.man.Shards {
		indices[e.Index] = true
	}
	if dirents, err := os.ReadDir(dir); err == nil {
		for _, de := range dirents {
			var idx int
			if n, _ := fmt.Sscanf(de.Name(), "corpus-%05d.bin", &idx); n == 1 {
				indices[idx] = true
			}
		}
	}
	sorted := make([]int, 0, len(indices))
	for idx := range indices {
		sorted = append(sorted, idx)
	}
	sort.Ints(sorted)

	// Validate (and salvage where needed) each shard, rebuilding the
	// manifest entries and record totals from what actually survives.
	var entries []storeShardEntry
	records := 0
	headerSeen := s.man.Platform != ""
	for _, idx := range sorted {
		path := filepath.Join(dir, storeShardFile(idx))
		recs, hdr, err := readStoreShard(path, idx)
		if err != nil {
			recs = s.salvageShard(path, idx, report)
			if len(recs) == 0 {
				continue
			}
		} else if hdr != nil && !headerSeen {
			s.man.Platform, s.man.Formats = hdr.Platform, hdr.Formats
			headerSeen = true
		}
		entries = append(entries, storeShardEntry{Index: idx, Records: len(recs)})
		records += len(recs)
		for _, r := range recs {
			s.seen[r.FP] = true
		}
	}
	s.man.Shards = entries
	s.man.Records = records

	if len(entries) == 0 && report.ManifestRebuilt && len(sorted) == 0 {
		return nil, nil, fmt.Errorf("%w: %s has neither a manifest nor shards", ErrStore, dir)
	}

	// Trust the persisted dedup index only if it is at least as large as
	// what the shards contributed (it may additionally hold fingerprints
	// of dupes that were skipped); otherwise the rebuild above stands.
	if idx, err := ReadFingerprintSet(filepath.Join(dir, storeDedupFile), durable.EnvelopeCorpusIndex); err == nil && len(idx) >= len(s.seen) {
		for _, fp := range idx {
			s.seen[fp] = true
		}
	}

	if report.Salvaged() || report.ManifestRebuilt {
		if err := s.writeManifest(); err != nil {
			return nil, nil, err
		}
		report.write(dir)
		if records == 0 && report.Salvaged() {
			// Every record the store held is gone: that is a corrupt
			// corpus, not an empty one.
			return nil, report, fmt.Errorf("%w: %s: no record survived salvage (see %s)", ErrCorrupt, dir, storeSalvageFile)
		}
		return s, report, nil
	}
	return s, nil, nil
}

// Platform returns the platform the store's labels were collected on.
func (s *CorpusStore) Platform() string { return s.man.Platform }

// Formats returns the store's format selection set.
func (s *CorpusStore) Formats() []sparse.Format { return s.man.Formats }

// NumShards returns the number of published shards.
func (s *CorpusStore) NumShards() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.man.Shards)
}

// NumRecords returns the number of records across published shards
// (buffered, unflushed appends excluded).
func (s *CorpusStore) NumRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.Records
}

// Dupes returns how many appends the dedup index skipped.
func (s *CorpusStore) Dupes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.Dupes
}

// ShardSize returns the store's shard granularity in records.
func (s *CorpusStore) ShardSize() int { return s.man.ShardSize }

// Contains reports whether a fingerprint is already in the store (or
// was skipped as a duplicate of one that is).
func (s *CorpusStore) Contains(fp uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[fp]
}

// RecordFingerprint derives the dedup fingerprint of a record that has
// no imported matrix: a hash of the generator spec and the structural
// stats, which together pin the matrix a synthetic record regenerates.
func RecordFingerprint(r *Record) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) { binary.BigEndian.PutUint64(buf[:], v); h.Write(buf[:]) }
	put(uint64(r.Spec.Family))
	put(uint64(r.Spec.N))
	put(uint64(r.Spec.Rows))
	put(uint64(r.Spec.Cols))
	put(uint64(r.Spec.NNZ))
	put(uint64(r.Spec.Per))
	put(uint64(r.Spec.Seed))
	put(uint64(r.Spec.Derive))
	put(uint64(r.Spec.DeriveSeed))
	put(uint64(r.Stats.Rows))
	put(uint64(r.Stats.Cols))
	put(uint64(r.Stats.NNZ))
	return h.Sum64()
}

// Append adds one record under the given dedup fingerprint, buffering
// it until a full shard can be published. pattern, when non-nil, is
// persisted alongside the record so a fresh process can rebuild the
// matrix (required for imported records; pass nil for synthetic ones,
// whose spec regenerates the matrix). Returns false when the
// fingerprint is already present and the record was skipped.
func (s *CorpusStore) Append(r Record, fp uint64, pattern *sparse.COO) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen[fp] {
		s.man.Dupes++
		return false, nil
	}
	s.seen[fp] = true
	sr := storeRecord{FP: fp, W: toWireRecord(&r)}
	if pattern != nil {
		sr.HasPattern = true
		sr.PatRows = append([]int32(nil), pattern.Rows...)
		sr.PatCols = append([]int32(nil), pattern.Cols...)
	}
	s.buf = append(s.buf, sr)
	if len(s.buf) >= s.man.ShardSize {
		return true, s.flushLocked()
	}
	return true, nil
}

// Flush publishes any buffered records as a (possibly short) final
// shard. Call before Close when the append stream is complete.
func (s *CorpusStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) == 0 {
		return s.writeManifest()
	}
	return s.flushLocked()
}

// flushLocked publishes the buffer as the next shard: preflight the
// free space, write the shard atomically, then publish it in the
// manifest. Callers hold s.mu.
func (s *CorpusStore) flushLocked() error {
	idx := 0
	if n := len(s.man.Shards); n > 0 {
		idx = s.man.Shards[n-1].Index + 1
	}
	payload, err := encodeStoreShard(storeShardHeader{
		Version: storeVersion, Platform: s.man.Platform, Formats: s.man.Formats,
		Index: idx, Count: len(s.buf),
	}, s.buf)
	if err != nil {
		return err
	}
	if err := PreflightFreeSpace(s.dir, uint64(len(payload))*2+(1<<20)); err != nil {
		return err
	}
	if err := faultinject.Inject(faultinject.PointStoreWriteFail); err != nil {
		return fmt.Errorf("%w: injected: %v", ErrNoSpace, err)
	}
	path := filepath.Join(s.dir, storeShardFile(idx))
	if err := durable.WriteEnvelopeFile(path, durable.EnvelopeCorpusShard, payload); err != nil {
		return fmt.Errorf("%w: shard %d: %v", ErrNoSpace, idx, err)
	}
	if err := faultinject.Inject(faultinject.PointStoreCorrupt); err != nil {
		// Flips a byte mid-shard: the shard is published as if intact,
		// and the next OpenStore's envelope check sends it to salvage.
		_ = faultinject.CorruptFile(path)
	}
	s.man.Shards = append(s.man.Shards, storeShardEntry{Index: idx, Records: len(s.buf)})
	s.man.Records += len(s.buf)
	s.buf = s.buf[:0]
	if err := s.writeDedupIndex(); err != nil {
		return err
	}
	return s.writeManifest()
}

// writeManifest publishes the manifest atomically. Callers hold s.mu
// or have exclusive access.
func (s *CorpusStore) writeManifest() error {
	payload, err := json.Marshal(s.man)
	if err != nil {
		return fmt.Errorf("dataset: store: manifest: %w", err)
	}
	if err := durable.WriteEnvelopeFile(filepath.Join(s.dir, storeManifestFile), durable.EnvelopeCorpusManifest, payload); err != nil {
		return fmt.Errorf("%w: manifest: %v", ErrNoSpace, err)
	}
	return nil
}

func readStoreManifest(path string) (*storeManifest, error) {
	payload, err := durable.ReadEnvelopeFile(path, durable.EnvelopeCorpusManifest)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: manifest %s: %v", ErrCorrupt, path, err)
	}
	var m storeManifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest %s: %v", ErrCorrupt, path, err)
	}
	if m.Version != storeVersion {
		return nil, fmt.Errorf("%w: manifest %s: store version %d, supported %d", ErrCorrupt, path, m.Version, storeVersion)
	}
	if err := sparse.CheckFormats(m.Formats); err != nil {
		return nil, fmt.Errorf("%w: manifest %s: %v", ErrCorrupt, path, err)
	}
	return &m, nil
}

// writeDedupIndex persists the fingerprint set atomically. Callers
// hold s.mu.
func (s *CorpusStore) writeDedupIndex() error {
	if err := WriteFingerprintSet(filepath.Join(s.dir, storeDedupFile), durable.EnvelopeCorpusIndex, s.seen); err != nil {
		return fmt.Errorf("%w: dedup index: %v", ErrNoSpace, err)
	}
	return nil
}

// WriteFingerprintSet atomically publishes a set of pattern
// fingerprints as an enveloped file of the given kind: big-endian u64s
// in ascending order, so equal sets are equal bytes whatever order a
// map ranges in. A store's dedup index and the feedback collector's
// evicted set are both this file.
func WriteFingerprintSet(path string, kind uint32, set map[uint64]bool) error {
	fps := make([]uint64, 0, len(set))
	for fp := range set {
		fps = append(fps, fp)
	}
	slices.Sort(fps)
	payload := make([]byte, 8*len(fps))
	for i, fp := range fps {
		binary.BigEndian.PutUint64(payload[8*i:], fp)
	}
	return durable.WriteEnvelopeFile(path, kind, payload)
}

// ReadFingerprintSet reads a file WriteFingerprintSet wrote. A missing
// file is an error that matches fs.ErrNotExist.
func ReadFingerprintSet(path string, kind uint32) ([]uint64, error) {
	payload, err := durable.ReadEnvelopeFile(path, kind)
	if err != nil {
		return nil, err
	}
	if len(payload)%8 != 0 {
		return nil, fmt.Errorf("%w: fingerprint set %s: odd length %d", ErrCorrupt, path, len(payload))
	}
	fps := make([]uint64, len(payload)/8)
	for i := range fps {
		fps[i] = binary.BigEndian.Uint64(payload[8*i:])
	}
	return fps, nil
}

// encodeStoreShard builds the framed shard payload: a header frame
// followed by one frame per record, each frame one value's gob stream.
func encodeStoreShard(hdr storeShardHeader, recs []storeRecord) ([]byte, error) {
	var out []byte
	appendFrame := func(v any) error {
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(v); err != nil {
			return fmt.Errorf("dataset: store: encoding frame: %w", err)
		}
		out = durable.AppendFrame(out, b.Bytes())
		return nil
	}
	if err := appendFrame(hdr); err != nil {
		return nil, err
	}
	for i := range recs {
		if err := appendFrame(recs[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readStoreShard loads one shard through the envelope fast path: the
// envelope CRC covers the whole payload, so a valid envelope means
// every frame is intact and the frame walk cannot fail. Any error
// means the caller should fall back to salvage.
func readStoreShard(path string, wantIndex int) ([]storeRecord, *storeShardHeader, error) {
	payload, err := durable.ReadEnvelopeFile(path, durable.EnvelopeCorpusShard)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("%w: shard %s: %v", ErrCorrupt, path, err)
	}
	frames, _, err := durable.WalkFrames(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: shard %s: %v", ErrCorrupt, path, err)
	}
	if len(frames) == 0 {
		return nil, nil, fmt.Errorf("%w: shard %s has no header frame", ErrCorrupt, path)
	}
	var hdr storeShardHeader
	if err := gob.NewDecoder(bytes.NewReader(frames[0])).Decode(&hdr); err != nil {
		return nil, nil, fmt.Errorf("%w: shard %s header: %v", ErrCorrupt, path, err)
	}
	if hdr.Index != wantIndex {
		return nil, nil, fmt.Errorf("%w: shard %s holds index %d, want %d", ErrCorrupt, path, hdr.Index, wantIndex)
	}
	if hdr.Count != len(frames)-1 {
		return nil, nil, fmt.Errorf("%w: shard %s declares %d records, holds %d", ErrCorrupt, path, hdr.Count, len(frames)-1)
	}
	if err := sparse.CheckFormats(hdr.Formats); err != nil {
		return nil, nil, fmt.Errorf("%w: shard %s header: %v", ErrCorrupt, path, err)
	}
	recs := make([]storeRecord, 0, len(frames)-1)
	for _, fb := range frames[1:] {
		var sr storeRecord
		if err := gob.NewDecoder(bytes.NewReader(fb)).Decode(&sr); err != nil {
			return nil, nil, fmt.Errorf("%w: shard %s record: %v", ErrCorrupt, path, err)
		}
		recs = append(recs, sr)
	}
	return recs, &hdr, nil
}

// shardToDataset materialises one shard's records as a Dataset bound
// to the store's platform and format set, attaching in-memory matrices
// for pattern records and validating semantics. Records that fail
// semantic validation are dropped and counted (never returned — a
// CRC-valid but semantically poisonous record must not reach
// training); the int return is the dropped count.
func (s *CorpusStore) shardToDataset(recs []storeRecord) (*Dataset, int, error) {
	d := &Dataset{Platform: s.man.Platform, Formats: s.man.Formats}
	d.Records = make([]Record, 0, len(recs))
	dropped := 0
	for i := range recs {
		rec, err := storeRecordToRecord(&recs[i])
		if err != nil {
			dropped++
			continue
		}
		d.Records = append(d.Records, rec)
		if err := d.validateRecord(len(d.Records) - 1); err != nil {
			d.Records = d.Records[:len(d.Records)-1]
			dropped++
		}
	}
	return d, dropped, nil
}

// storeRecordToRecord rebuilds a Record (and its in-memory matrix for
// pattern records) from the store wire form.
func storeRecordToRecord(sr *storeRecord) (Record, error) {
	rec, err := fromWireRecord(&sr.W)
	if err != nil {
		return Record{}, err
	}
	if sr.HasPattern {
		m, err := sparse.UnitCOO(rec.Stats.Rows, rec.Stats.Cols, sr.PatRows, sr.PatCols)
		if err != nil {
			return Record{}, fmt.Errorf("%w: record %d pattern: %v", ErrInvalid, rec.ID, err)
		}
		rec.mat = m
		rec.Spec.Family = importedFamily
	}
	return rec, nil
}

// Shard loads the i'th published shard (by position, not index gaps)
// as a Dataset. Records that fail semantic validation are dropped.
func (s *CorpusStore) Shard(i int) (*Dataset, error) {
	s.mu.Lock()
	if i < 0 || i >= len(s.man.Shards) {
		n := len(s.man.Shards)
		s.mu.Unlock()
		return nil, fmt.Errorf("dataset: store: shard %d out of range (store has %d)", i, n)
	}
	entry := s.man.Shards[i]
	s.mu.Unlock()
	recs, _, err := readStoreShard(filepath.Join(s.dir, storeShardFile(entry.Index)), entry.Index)
	if err != nil {
		return nil, err
	}
	d, _, err := s.shardToDataset(recs)
	return d, err
}

// Iter returns a shard-at-a-time iterator over the store. The iterator
// holds one shard in memory at a time; the previous shard's records
// (and their matrices) become garbage as soon as Next advances.
func (s *CorpusStore) Iter() *ShardIter {
	s.mu.Lock()
	entries := make([]storeShardEntry, len(s.man.Shards))
	copy(entries, s.man.Shards)
	s.mu.Unlock()
	return &ShardIter{store: s, entries: entries, pos: -1}
}

// ShardIter iterates a store shard by shard.
type ShardIter struct {
	store   *CorpusStore
	entries []storeShardEntry
	pos     int
	cur     *Dataset
	err     error
}

// Next advances to the next shard, reporting false at the end or on
// error (check Err).
func (it *ShardIter) Next() bool {
	it.cur = nil
	for {
		it.pos++
		if it.pos >= len(it.entries) {
			return false
		}
		entry := it.entries[it.pos]
		recs, _, err := readStoreShard(filepath.Join(it.store.dir, storeShardFile(entry.Index)), entry.Index)
		if err != nil {
			it.err = err
			return false
		}
		d, _, err := it.store.shardToDataset(recs)
		if err != nil {
			it.err = err
			return false
		}
		if len(d.Records) == 0 {
			continue
		}
		it.cur = d
		return true
	}
}

// Shard returns the current shard as a Dataset.
func (it *ShardIter) Shard() *Dataset { return it.cur }

// Err returns the terminal error, if Next stopped on one.
func (it *ShardIter) Err() error { return it.err }

// TruncateShards drops every published shard past the first n,
// deleting their files and rebuilding the dedup index and record
// count from the survivors. The resumable build uses it to rewind a
// store to its last journaled consistent point: orphan shards
// (published but killed before the build journal landed) and
// salvage-degraded shards are simply regenerated, which is what makes
// a resumed build byte-identical to an uninterrupted one.
func (s *CorpusStore) TruncateShards(n int, dupes int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n >= len(s.man.Shards) && dupes == s.man.Dupes {
		return nil
	}
	for _, e := range s.man.Shards[min(n, len(s.man.Shards)):] {
		os.Remove(filepath.Join(s.dir, storeShardFile(e.Index)))
	}
	if n < len(s.man.Shards) {
		s.man.Shards = s.man.Shards[:n]
	}
	s.man.Dupes = dupes
	s.man.Records = 0
	s.seen = map[uint64]bool{}
	s.buf = s.buf[:0]
	for _, e := range s.man.Shards {
		recs, _, err := readStoreShard(filepath.Join(s.dir, storeShardFile(e.Index)), e.Index)
		if err != nil {
			return fmt.Errorf("dataset: store: truncate reread: %w", err)
		}
		s.man.Records += len(recs)
		for i := range recs {
			s.seen[recs[i].FP] = true
		}
	}
	if err := s.writeDedupIndex(); err != nil {
		return err
	}
	return s.writeManifest()
}

// WriteStore persists an in-memory dataset as a store at dir — how a
// corpus that was generated, relabelled or assembled in memory reaches
// disk (train -dataset, the tests' fixtures).
func WriteStore(dir string, d *Dataset, shardSize int) (*CorpusStore, error) {
	s, err := CreateStore(dir, d.Platform, d.Formats, shardSize)
	if err != nil {
		return nil, err
	}
	for i := range d.Records {
		r := d.Records[i]
		var pattern *sparse.COO
		fp := RecordFingerprint(&r)
		if r.mat != nil {
			pattern = r.mat
			fp = sparse.Fingerprint(r.mat)
		}
		if _, err := s.Append(r, fp, pattern); err != nil {
			return nil, err
		}
	}
	if err := s.Flush(); err != nil {
		return nil, err
	}
	return s, nil
}

// LoadStoreAll streams every shard into one in-memory Dataset, for
// consumers that need the whole corpus resident (migrate's retraining,
// the experiments' cross-validation, shepherd's drift profile);
// corpus-scale training should iterate the store instead. Corrupt
// shards have already been salvaged by OpenStore; this cannot abort on
// them.
func (s *CorpusStore) LoadStoreAll() (*Dataset, error) {
	d := &Dataset{Platform: s.man.Platform, Formats: s.man.Formats}
	it := s.Iter()
	for it.Next() {
		d.Records = append(d.Records, it.Shard().Records...)
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	if len(d.Records) == 0 {
		return nil, fmt.Errorf("%w: store %s holds no valid records", ErrInvalid, s.dir)
	}
	return d, nil
}

// OpenValidatedStore opens a store directory and checks that it was
// labeled for the given labeler's platform and format set, so a corpus
// collected on one architecture cannot silently train a selector for
// another (labels are architecture-dependent — that mismatch is the
// whole point of the paper's Section 6). Mismatches return errors
// matching ErrMismatch. Salvage runs inside OpenStore; the report (nil
// when the store opened clean) is returned so callers can log what was
// repaired.
func OpenValidatedStore(dir string, lab *machine.Labeler) (*CorpusStore, *SalvageReport, error) {
	s, report, err := OpenStore(dir)
	if err != nil {
		return nil, nil, err
	}
	if s.Platform() != lab.Platform.Name {
		return nil, report, fmt.Errorf("%w: store labeled on %q, labeler targets %q", ErrMismatch, s.Platform(), lab.Platform.Name)
	}
	if want := lab.FormatSet(); !slices.Equal(s.Formats(), want) {
		return nil, report, fmt.Errorf("%w: store selects among %v, labeler selects among %v", ErrMismatch, s.Formats(), want)
	}
	return s, report, nil
}
