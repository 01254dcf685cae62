package dataset

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/robust"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// Config controls a corpus build: an in-memory generation (GenerateCtx)
// or a resumable store build from either source (GenerateStore,
// IngestDir).
type Config struct {
	// Count, Seed and MaxN shape the generator source: how many specs
	// are sampled, from which seed, under which dimension bound. A
	// directory build ignores them.
	Count int
	Seed  int64
	MaxN  int
	// Limits is the per-file resource budget of a directory build; the
	// zero value means sparse.DefaultLimits (service-grade caps), not
	// unlimited — bulk ingestion reads untrusted archives.
	Limits sparse.Limits

	Workers int // <=0 means GOMAXPROCS

	// ShardSize is the store's shard granularity in records (default
	// 64) and the unit of crash-safe resume: a killed build loses at
	// most the shard in flight. Items are also labelled this many at a
	// time.
	ShardSize int
	// Resume continues an interrupted build of the same store directory
	// from the same source and flags instead of resetting it. Because
	// every record is a pure function of (source, walk position,
	// labeler), a resumed build produces a store byte-identical to an
	// uninterrupted one.
	Resume bool
	// MatrixTimeout is the per-item deadline over build-or-read, stats
	// and label; an item exceeding it is quarantined (a stalled
	// goroutine is abandoned — Go cannot preempt a hot loop — so a
	// pathological matrix costs one goroutine, not the build). 0
	// disables.
	MatrixTimeout time.Duration
	// MaxQuarantineFrac aborts the build with ErrTooManyQuarantined
	// when more than this fraction of the items examined so far were
	// quarantined (default 0.25; negative disables). Containment is for
	// poison matrices, not for masking a systemically broken labeler or
	// a mis-pointed directory.
	MaxQuarantineFrac float64
	// BreakerThreshold trips ErrBreakerTripped after this many
	// consecutive per-item failures (default 16; negative disables).
	BreakerThreshold int
	// Metrics, when set, receives live progress of a store build (see
	// NewBuildMetrics).
	Metrics *BuildMetrics
	// OnShard, if set, observes (publishedShards, upperBound) after
	// every shard a store build publishes — the progress hook for
	// logging and tests. The bound is the shard count if no item is
	// quarantined or deduplicated.
	OnShard func(done, total int)
}

func (cfg *Config) defaults() {
	if cfg.Count <= 0 {
		cfg.Count = 100
	}
	if cfg.MaxN <= 0 {
		cfg.MaxN = 512
	}
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQuarantineFrac == 0 {
		cfg.MaxQuarantineFrac = 0.25
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 16
	}
}

// Generate builds a labelled dataset of cfg.Count matrices on the given
// platform, computing stats and labels in parallel. It is the
// non-cancellable convenience wrapper over GenerateCtx; failures that
// GenerateCtx would contain or type (quarantine overflow, breaker trip)
// cannot occur without injected faults, so any error here is programmer
// error and panics, preserving the original Generate contract.
func Generate(cfg Config, lab *machine.Labeler) *Dataset {
	d, _, err := GenerateCtx(context.Background(), cfg, lab)
	if err != nil {
		panic(fmt.Sprintf("dataset: Generate: %v", err))
	}
	return d
}

// GenerateCtx is the in-memory corpus builder — step 1 of the paper's
// Figure 3 pipeline for corpora small enough to hold, which is what
// training from scratch, the experiments and the tests use. It runs the
// same labelling loop as the store builds (see build.run): every matrix
// is built, measured and labelled inside its own panic containment and
// optional deadline, with failures quarantined instead of aborting.
// Nothing is persisted; GenerateStore is the crash-safe form.
//
// The returned BuildReport is non-nil whenever the build ran at all,
// even on error, so callers can log partial progress.
func GenerateCtx(ctx context.Context, cfg Config, lab *machine.Labeler) (*Dataset, *BuildReport, error) {
	cfg.defaults()
	start := time.Now()
	b := &build{cfg: cfg, lab: lab, src: newSpecSource(cfg)}
	d := &Dataset{Platform: lab.Platform.Name, Formats: lab.FormatSet()}
	err := b.run(ctx, 0, func(_ int, it *labelled) error {
		d.Records = append(d.Records, it.rec)
		return nil
	})
	report := b.report(start, len(d.Records))
	if err != nil {
		return nil, report, err
	}
	if len(d.Records) == 0 {
		return nil, report, fmt.Errorf("%w: every matrix was quarantined (%d/%d)", ErrTooManyQuarantined, len(b.quarantined), cfg.Count)
	}
	return d, report, nil
}

// source is the walk a build labels: a sampled spec list or a sorted
// MatrixMarket tree. An item's walk position is also its record ID and
// label-noise seed, so a record is a pure function of (source,
// position) — independent of worker scheduling, of quarantine gaps and
// of how often the build was interrupted.
type source interface {
	len() int
	// load builds or reads item i. The spec regenerates the matrix, or
	// carries importedFamily when only the stored pattern can.
	load(ctx context.Context, i int) (*sparse.COO, synthgen.Spec, error)
	// name fills in what identifies item i in a quarantine entry.
	name(i int, q *QuarantineEntry)
	// identity is everything about the source that shapes the records;
	// it is hashed into the build journal so a resume against a
	// different source is refused.
	identity() any
}

// specSource is the synthetic generator: cfg.Count specs sampled from
// the synthgen mixture.
type specSource struct {
	specs []synthgen.Spec
	id    specIdentity
}

type specIdentity struct {
	Count int
	Seed  int64
	MaxN  int
}

func newSpecSource(cfg Config) *specSource {
	return &specSource{
		specs: synthgen.SampleSpecs(cfg.Count, cfg.Seed, cfg.MaxN),
		id:    specIdentity{cfg.Count, cfg.Seed, cfg.MaxN},
	}
}

func (s *specSource) len() int      { return len(s.specs) }
func (s *specSource) identity() any { return s.id }

func (s *specSource) load(_ context.Context, i int) (*sparse.COO, synthgen.Spec, error) {
	return synthgen.Build(s.specs[i]), s.specs[i], nil
}

func (s *specSource) name(i int, q *QuarantineEntry) { q.Spec = &s.specs[i] }

// build is one run of the labelling loop over a source.
type build struct {
	cfg Config
	lab *machine.Labeler
	src source

	// quarantined holds the failed items in walk order; a resumed store
	// build seeds it from the journal.
	quarantined []QuarantineEntry
	// consecutive is the unbroken run of failures ending at the last
	// item examined — the breaker's input.
	consecutive int
}

// labelled carries one item's result out of its containment: the
// record with its dedup fingerprint, or the stage and error it failed
// at.
type labelled struct {
	rec      Record
	fp       uint64
	stage    string
	err      error
	panicked bool
	timeout  bool
}

// run labels items [start, len) of the source and hands each labelled
// one to emit in walk order. Items are labelled ShardSize at a time by
// a panic-containing worker fan-out; failures are quarantined and
// charged to the breaker and the quarantine budget by the single
// caller goroutine, in walk order, so where a build aborts does not
// depend on worker scheduling. Cancellation is never quarantined —
// Ctrl-C must not poison the quarantine ledger.
func (b *build) run(ctx context.Context, start int, emit func(i int, it *labelled) error) error {
	n := b.src.len()
	outs := make([]labelled, b.cfg.ShardSize)
	for lo := start; lo < n; lo += len(outs) {
		hi := min(lo+len(outs), n)
		var next atomic.Int64
		next.Store(int64(lo))
		err := robust.WorkersCtx(ctx, min(b.cfg.Workers, hi-lo), func(wctx context.Context, _ int) error {
			for {
				i := int(next.Add(1)) - 1
				if i >= hi {
					return nil
				}
				if err := wctx.Err(); err != nil {
					return err
				}
				outs[i-lo] = b.labelOne(wctx, i)
			}
		})
		if err != nil {
			return err
		}
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			it := &outs[i-lo]
			if it.err != nil {
				err = b.quarantine(i, it)
			} else {
				b.consecutive = 0
				err = emit(i, it)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// quarantine records item i's failure and escalates when failure looks
// systemic. The breaker watches consecutive failures: scattered poison
// matrices are quarantine's job, an unbroken run means the labeler or
// the source is sick and the build must stop burning machine time. The
// budget bounds total attrition, after a minimum sample so one early
// bad item cannot kill a run, as a share of the items examined since
// the walk began — not since the last resume, which would charge a
// resumed build's whole quarantine history to its first few items.
func (b *build) quarantine(i int, it *labelled) error {
	q := QuarantineEntry{Index: i, Stage: it.stage, Error: it.err.Error(), Panic: it.panicked, Timeout: it.timeout}
	b.src.name(i, &q)
	b.quarantined = append(b.quarantined, q)
	b.consecutive++
	if m := b.cfg.Metrics; m != nil {
		m.Quarantined.Inc()
	}
	if t := b.cfg.BreakerThreshold; t > 0 && b.consecutive >= t {
		return fmt.Errorf("%w: %d consecutive failures, last: %s", ErrBreakerTripped, b.consecutive, q.Error)
	}
	const minSample = 16
	examined, frac := i+1, b.cfg.MaxQuarantineFrac
	if frac >= 0 && examined >= minSample && float64(len(b.quarantined)) > frac*float64(examined) {
		return fmt.Errorf("%w: %d of the first %d items (budget %.0f%%)",
			ErrTooManyQuarantined, len(b.quarantined), examined, frac*100)
	}
	return nil
}

// labelOne labels item i under the optional per-item deadline. It
// never panics and never blocks past the deadline: the result travels
// over a buffered channel, so a deadline-abandoned goroutine finishing
// late writes into garbage-collectable memory instead of racing the
// caller.
func (b *build) labelOne(ctx context.Context, i int) labelled {
	if b.cfg.MatrixTimeout <= 0 {
		return b.labelItem(ctx, i)
	}
	tctx, cancel := context.WithTimeout(ctx, b.cfg.MatrixTimeout)
	defer cancel() // also stops a cooperative reader the deadline abandoned
	ch := make(chan labelled, 1)
	go func() { ch <- b.labelItem(tctx, i) }()
	var out labelled
	select {
	case out = <-ch:
	case <-tctx.Done():
		out = labelled{stage: StageLabel, err: tctx.Err()}
	}
	if errors.Is(out.err, context.DeadlineExceeded) && ctx.Err() == nil {
		out.timeout = true
		out.err = fmt.Errorf("%w after %v", ErrMatrixTimeout, b.cfg.MatrixTimeout)
	}
	return out
}

// labelItem is the contained unit of work: build or read the matrix,
// compute stats, label. Panics at any stage are recovered into the
// result.
func (b *build) labelItem(ctx context.Context, i int) (out labelled) {
	out.stage = StageBuild
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("panic: %v", r)
			out.panicked = true
		}
	}()
	// Chaos hooks: the drill slows the build here to land its SIGKILL
	// mid-run, and the poison-matrix fault proves quarantine.
	if err := faultinject.InjectCtx(ctx, faultinject.PointLabelStall); err != nil {
		out.stage, out.err = StageLabel, err
		return out
	}
	if err := faultinject.Inject(faultinject.PointLabelPanic); err != nil {
		out.stage, out.err = StageLabel, err
		return out
	}
	m, spec, err := b.src.load(ctx, i)
	if err != nil {
		out.err = err
		return out
	}
	out.stage = StageStats
	st := sparse.ComputeStats(m)
	if st.NNZ == 0 {
		out.err = fmt.Errorf("matrix is empty (%dx%d)", st.Rows, st.Cols)
		return out
	}
	out.stage = StageLabel
	label, times := b.lab.Label(st, uint64(i))
	out.rec = Record{ID: uint64(i), Spec: spec, Stats: st, Label: label, Times: times}
	if spec.Family == importedFamily {
		out.rec.mat = m
		out.fp = sparse.Fingerprint(m)
	} else {
		out.fp = RecordFingerprint(&out.rec)
	}
	return out
}

// report summarises the run so far.
func (b *build) report(start time.Time, records int) *BuildReport {
	r := &BuildReport{
		Platform: b.lab.Platform.Name, Items: b.src.len(),
		Records: records, Quarantined: b.quarantined,
		ElapsedSec: time.Since(start).Seconds(),
	}
	if r.ElapsedSec > 0 {
		r.LabelsPerSec = float64(records) / r.ElapsedSec
	}
	return r
}

// Relabel returns a copy of the dataset with labels and times collected
// on a different platform — the cross-architecture migration setting of
// Section 6. Stats and specs are reused; only labels change.
func (d *Dataset) Relabel(lab *machine.Labeler) *Dataset {
	out, err := d.RelabelCtx(context.Background(), lab, 0)
	if err != nil {
		panic(fmt.Sprintf("dataset: Relabel: %v", err))
	}
	return out
}

// RelabelCtx is Relabel parallelised over a panic-safe worker pool with
// cooperative cancellation: label collection on a second platform is as
// expensive as the first, so it gets the same containment and the same
// Ctrl-C behaviour.
func (d *Dataset) RelabelCtx(ctx context.Context, lab *machine.Labeler, workers int) (*Dataset, error) {
	out := &Dataset{Platform: lab.Platform.Name, Formats: lab.FormatSet()}
	out.Records = make([]Record, len(d.Records))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(d.Records) {
		workers = len(d.Records)
	}
	var next atomic.Int64
	err := robust.WorkersCtx(ctx, workers, func(wctx context.Context, _ int) error {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(d.Records) {
				return nil
			}
			if err := wctx.Err(); err != nil {
				return err
			}
			r := d.Records[i]
			label, times := lab.Label(r.Stats, r.ID)
			out.Records[i] = Record{ID: r.ID, Spec: r.Spec, Stats: r.Stats, Label: label, Times: times}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
