package feedback

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// activeName is the segment currently being appended to. Rotation
// renames it to a numbered segment (segment files are what the
// Collector folds; the active file is never read by anyone else).
const activeName = "feedback.jsonl"

// LoggerConfig parameterises a Logger.
type LoggerConfig struct {
	// Dir is the feedback log directory (created if missing).
	Dir string
	// MaxSegmentBytes rotates the active segment beyond this size
	// (default 1 MiB).
	MaxSegmentBytes int64
	// MaxSegmentAge rotates the active segment beyond this age even
	// when small (default 30s) — bounding how stale the collector's
	// view can be under light traffic.
	MaxSegmentAge time.Duration
	// FlushInterval is the period at which the background flusher
	// drains the queue and flushes what it wrote (default 200ms).
	FlushInterval time.Duration
	// QueueDepth bounds entries waiting for the background flusher —
	// it takes them once per FlushInterval; beyond it entries are
	// dropped (counted, never blocking the request path — feedback is
	// telemetry, not a dependency). Default 1024.
	QueueDepth int
	// MaxPatternNNZ caps which matrices get their COO pattern embedded
	// in the entry (default 4096; negative disables pattern capture).
	// Larger matrices still contribute features to drift detection.
	MaxPatternNNZ int
	// Registry receives the feedback_* instrument set (nil = private
	// registry).
	Registry *obs.Registry
	// Log receives operational lines (nil = silent).
	Log io.Writer
}

func (c *LoggerConfig) defaults() {
	if c.MaxSegmentBytes <= 0 {
		c.MaxSegmentBytes = 1 << 20
	}
	if c.MaxSegmentAge <= 0 {
		c.MaxSegmentAge = 30 * time.Second
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 200 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.MaxPatternNNZ == 0 {
		c.MaxPatternNNZ = 4096
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
}

// loggerMetrics is the Logger's instrument set (the feedback_* series).
type loggerMetrics struct {
	entries     *obs.Counter
	dropped     *obs.Counter
	flushed     *obs.Counter
	rotations   *obs.Counter
	estimates   *obs.Counter
	writeErrors *obs.Counter
	activeBytes *obs.Gauge
}

func newLoggerMetrics(r *obs.Registry) *loggerMetrics {
	return &loggerMetrics{
		entries:     r.Counter("feedback_entries_total", "Prediction outcomes captured into the feedback log."),
		dropped:     r.Counter("feedback_dropped_total", "Feedback entries dropped because the capture queue was full."),
		flushed:     r.Counter("feedback_flushed_total", "Feedback entries written to the active segment."),
		rotations:   r.Counter("feedback_rotations_total", "Feedback segment rotations (size, age or shutdown)."),
		estimates:   r.Counter("feedback_estimates_total", "Entries whose SpMV timing was cost-model-estimated."),
		writeErrors: r.Counter("feedback_write_errors_total", "Failed feedback log writes (entries lost)."),
		activeBytes: r.Gauge("feedback_active_bytes", "Bytes in the active (unrotated) feedback segment."),
	}
}

// estPlatform prices the fallback SpMV timing: an entry whose client
// reported none gets the cost model's seconds for the served format on
// the Stats the flusher has just computed — the model the Collector's
// Labeler prices the entry with when folding it (gather locality comes
// from Stats.GatherMiss8K/32K; nothing is converted or replayed). The
// platform is a constant because a model artifact records none and
// xeonlike is core.Options' default.
var estPlatform = machine.XeonLike()

// pending is one capture awaiting background processing. The pattern
// rides along so stats, the captured positions and the estimate are
// computed off the request path; until the flusher gets to it a queued
// pending pins the two index arrays, 8 bytes a nonzero.
type pending struct {
	pat *sparse.Pattern
	e   Entry
}

// Logger is the crash-safe feedback capture sink. Record is the hot
// path: it stamps the entry and leaves it on a bounded queue (full
// queue = counted drop, never a stall) that a single background flusher
// drains every FlushInterval. The flusher computes the expensive
// fields, appends JSONL to the active segment, and rotates segments by
// size and age with an fsync'd atomic rename — a crash can lose at
// most the unflushed tail of the active file, and a torn final line is
// skipped (and counted) by the Collector.
type Logger struct {
	cfg LoggerConfig
	met *loggerMetrics

	ch     chan pending
	quit   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	// Flusher-goroutine state (no locking needed beyond Close's wg).
	file      *os.File
	w         *bufio.Writer
	segBytes  int64
	segOpened time.Time
	seq       int
	unflushed int
	firstErr  error
	enc       entryEncoder
}

// NewLogger opens (or creates) the feedback log in cfg.Dir. An active
// segment left behind by a crashed process is rotated immediately so
// its entries become visible to the Collector.
func NewLogger(cfg LoggerConfig) (*Logger, error) {
	cfg.defaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("feedback: logger needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("feedback: %w", err)
	}
	l := &Logger{
		cfg:  cfg,
		met:  newLoggerMetrics(cfg.Registry),
		ch:   make(chan pending, cfg.QueueDepth),
		quit: make(chan struct{}),
	}
	l.seq = nextSegmentSeq(cfg.Dir)
	// Crash recovery: a non-empty active file from a previous process
	// is sealed as a segment before this process appends anything.
	if fi, err := os.Stat(l.activePath()); err == nil && fi.Size() > 0 {
		if err := os.Rename(l.activePath(), l.segmentPath(l.seq)); err != nil {
			return nil, fmt.Errorf("feedback: sealing stale active segment: %w", err)
		}
		l.seq++
	}
	if err := l.openActive(); err != nil {
		return nil, err
	}
	l.wg.Add(1)
	go l.flusher()
	return l, nil
}

func (l *Logger) activePath() string { return filepath.Join(l.cfg.Dir, activeName) }

func (l *Logger) segmentPath(seq int) string {
	return filepath.Join(l.cfg.Dir, fmt.Sprintf("seg-%06d.jsonl", seq))
}

// SegmentFiles lists the rotated (collector-visible) segments of a
// feedback directory in fold order.
func SegmentFiles(dir string) ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// nextSegmentSeq scans dir for existing segments and returns the first
// unused sequence number.
func nextSegmentSeq(dir string) int {
	paths, _ := SegmentFiles(dir)
	next := 0
	for _, p := range paths {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(p), "seg-%d.jsonl", &n); err == nil && n >= next {
			next = n + 1
		}
	}
	return next
}

func (l *Logger) openActive() error {
	f, err := os.OpenFile(l.activePath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("feedback: %w", err)
	}
	l.file = f
	l.w = bufio.NewWriter(f)
	l.segBytes = 0
	l.segOpened = time.Now()
	l.met.activeBytes.Set(0)
	return nil
}

// Record captures one prediction outcome. It never blocks and does no
// work proportional to the matrix: the entry is stamped and enqueued
// for the background flusher with a reference to the pattern (serve's
// patterns are immutable after the scan), and a full queue drops it
// (feedback_dropped_total).
func (l *Logger) Record(pat *sparse.Pattern, e Entry) {
	if l.closed.Load() {
		return
	}
	e.Time = time.Now().UnixNano()
	select {
	case l.ch <- pending{pat: pat, e: e}:
		l.met.entries.Inc()
	default:
		l.met.dropped.Inc()
	}
}

// Close flushes, seals the active segment as a final rotated segment
// and stops the flusher. It returns the first write error the flusher
// hit (entries after an error are counted lost, not retried).
func (l *Logger) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	close(l.quit)
	l.wg.Wait()
	return l.firstErr
}

// flusher is the single background goroutine owning the file state.
// It drains the queue on its own clock and is never parked on the
// channel: a send that has to wake a sleeping receiver is a futex call
// on the request goroutine, and a request owes capture a channel send,
// no more. The queue therefore absorbs QueueDepth entries per
// FlushInterval; beyond that rate entries are dropped and counted, as
// beyond any other rate the flusher cannot keep up with.
func (l *Logger) flusher() {
	defer l.wg.Done()
	ticker := time.NewTicker(l.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			l.drain()
			l.maybeRotate()
		case <-l.quit:
			l.drain()
			if l.segBytes > 0 {
				l.rotate()
			}
			if l.file != nil {
				l.file.Close()
			}
			return
		}
	}
}

// drain processes every queued entry and flushes what it wrote.
func (l *Logger) drain() {
	for {
		select {
		case p := <-l.ch:
			l.process(p)
			l.maybeRotate()
		default:
			l.flush()
			return
		}
	}
}

// process fills the expensive fields and appends one JSONL line.
func (l *Logger) process(p pending) {
	if l.w == nil { // a failed reopen after rotation; entries are lost
		l.met.writeErrors.Inc()
		return
	}
	e := p.e
	e.Stats = p.pat.Stats()
	if n := p.pat.NNZ(); l.cfg.MaxPatternNNZ >= 0 && n <= l.cfg.MaxPatternNNZ {
		e.PatRows = p.pat.Rows
		e.PatCols = p.pat.Cols
	}
	if e.ClientSec == 0 {
		if f, err := sparse.ParseFormat(e.Format); err == nil {
			e.EstSec = estPlatform.EstimateSeconds(e.Stats, f)
			l.met.estimates.Inc()
		}
	}
	line, err := l.enc.line(&e)
	if err != nil {
		l.writeError(err)
		return
	}
	if _, err := l.w.Write(line); err != nil {
		l.writeError(err)
		return
	}
	l.segBytes += int64(len(line))
	l.met.activeBytes.Set(float64(l.segBytes))
	l.met.flushed.Inc()
	l.unflushed++
}

func (l *Logger) flush() {
	if l.unflushed == 0 {
		return
	}
	if err := l.w.Flush(); err != nil {
		l.writeError(err)
	}
	l.unflushed = 0
}

// maybeRotate seals the active segment when it is big or old enough.
func (l *Logger) maybeRotate() {
	if l.segBytes >= l.cfg.MaxSegmentBytes ||
		(l.segBytes > 0 && time.Since(l.segOpened) >= l.cfg.MaxSegmentAge) {
		l.rotate()
	}
}

// rotate seals the active segment: flush, fsync, rename to the next
// numbered segment, reopen a fresh active file. The fsync-then-rename
// order is what makes a sealed segment durable — the Collector never
// sees a segment whose bytes may still be in flight.
func (l *Logger) rotate() {
	if l.file == nil { // a previous reopen failed; retry it instead
		if err := l.openActive(); err != nil {
			l.writeError(err)
		}
		return
	}
	l.flush()
	if err := l.file.Sync(); err != nil {
		l.writeError(err)
	}
	if err := l.file.Close(); err != nil {
		l.writeError(err)
	}
	if err := os.Rename(l.activePath(), l.segmentPath(l.seq)); err != nil {
		l.writeError(err)
	} else {
		l.seq++
		l.met.rotations.Inc()
	}
	if err := l.openActive(); err != nil {
		l.file, l.w = nil, nil
		l.writeError(err)
	}
}

func (l *Logger) writeError(err error) {
	l.met.writeErrors.Inc()
	if l.firstErr == nil {
		l.firstErr = err
		if l.cfg.Log != nil {
			fmt.Fprintf(l.cfg.Log, "feedback: log write error: %v\n", err)
		}
	}
}

// entryEncoder renders entries as JSONL lines in a buffer it reuses.
type entryEncoder struct {
	buf  bytes.Buffer
	enc  *json.Encoder
	head Entry
}

// line returns e as json.Marshal(e) would render it, plus a newline;
// the bytes are valid until the next call. encoding/json reflects over
// every element of the two pattern arrays — most of what an entry costs
// to render — so the entry is marshalled without them and they are
// appended as digits: they are the struct's last two fields and both
// omitempty, so the result is the same bytes.
func (w *entryEncoder) line(e *Entry) ([]byte, error) {
	if w.enc == nil {
		w.enc = json.NewEncoder(&w.buf)
	}
	w.buf.Reset()
	w.head = *e
	w.head.PatRows, w.head.PatCols = nil, nil
	if err := w.enc.Encode(&w.head); err != nil {
		return nil, err
	}
	w.buf.Truncate(w.buf.Len() - len("}\n"))
	// An int32 is at most 11 bytes and a comma.
	w.buf.Grow(2*len(`,"pat_rows":[]`) + 12*(len(e.PatRows)+len(e.PatCols)) + len("}\n"))
	b := w.buf.AvailableBuffer()
	b = appendInt32s(b, `,"pat_rows":[`, e.PatRows)
	b = appendInt32s(b, `,"pat_cols":[`, e.PatCols)
	w.buf.Write(append(b, '}', '\n'))
	return w.buf.Bytes(), nil
}

// appendInt32s appends key and xs as a JSON array, nothing when xs is
// empty (omitempty).
func appendInt32s(b []byte, key string, xs []int32) []byte {
	if len(xs) == 0 {
		return b
	}
	b = append(b, key...)
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}
