package machine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/sparse"
	"repro/internal/spmv"
)

// Labeler reproduces step 1 of the paper's pipeline (Figure 3): run SpMV
// on a matrix in every candidate format, time each, and label the matrix
// with the fastest format. Times come from the platform cost model with
// deterministic multiplicative noise standing in for run-to-run
// measurement variance. The paper's protocol averages 50 repeated
// measurements and reports the residual variance as "negligible", so
// the default NoiseSigma is 0.5% — the per-label uncertainty after that
// averaging. (At 3% the best-format label itself becomes a coin flip on
// the many matrices whose top two formats sit within a few percent,
// capping every predictor near 80%.)
type Labeler struct {
	Platform   *Platform
	Formats    []sparse.Format // defaults to Platform.FormatSet()
	NoiseSigma float64         // relative noise std dev; <0 disables
	Seed       int64
}

// NewLabeler builds a labeler for the platform's standard format set
// with the default 0.5% measurement noise.
func NewLabeler(p *Platform, seed int64) *Labeler {
	return &Labeler{Platform: p, Formats: p.FormatSet(), NoiseSigma: 0.005, Seed: seed}
}

// FormatSet returns the effective selection set — what a corpus this
// labeler labels is tied to.
func (l *Labeler) FormatSet() []sparse.Format {
	if len(l.Formats) > 0 {
		return l.Formats
	}
	return l.Platform.FormatSet()
}

// Times returns the (noisy) modelled SpMV seconds for every candidate
// format. id must be a stable identifier of the matrix so the noise is
// reproducible.
//
// Each format's noise is one NormFloat64 of rand.NewSource(s), s a hash
// of (Seed, id, format, platform). The source is a seededSource, which
// yields that stream's first draws without filling its 607-word state,
// so the noise costs what the cost model costs and every label and time
// is the one a fresh rand.NewSource(s) per format gives.
func (l *Labeler) Times(st sparse.Stats, id uint64) map[sparse.Format]float64 {
	out := make(map[sparse.Format]float64, len(l.FormatSet()))
	var src seededSource
	rng := rand.New(&src)
	for _, f := range l.FormatSet() {
		t := l.Platform.EstimateSeconds(st, f)
		if l.NoiseSigma > 0 {
			src.Seed(int64(noiseSeed(uint64(l.Seed), id, uint64(f), hashString(l.Platform.Name))))
			t *= math.Exp(l.NoiseSigma * rng.NormFloat64())
		}
		out[f] = t
	}
	return out
}

// Label returns the fastest format for the matrix and the full time map.
func (l *Labeler) Label(st sparse.Stats, id uint64) (sparse.Format, map[sparse.Format]float64) {
	times := l.Times(st, id)
	best := l.FormatSet()[0]
	for _, f := range l.FormatSet() {
		if times[f] < times[best] {
			best = f
		}
	}
	return best, times
}

// noiseSeed mixes the inputs with splitmix64 steps for a deterministic
// per-(run, matrix, format, platform) RNG seed.
func noiseSeed(parts ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, p := range parts {
		h ^= p + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
	}
	return h
}

func hashString(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// MeasureOpts configures wall-clock kernel measurement.
type MeasureOpts struct {
	// Workers is the SpMV kernel parallelism (0 = serial heuristic of
	// the kernel itself).
	Workers int
	// Repeats is the number of timed samples (default 9).
	Repeats int
	// Warmup is the number of untimed iterations before sampling
	// (default 1) — the first run pays cache-fill and page-fault costs
	// that have nothing to do with the format.
	Warmup int
	// Timeout bounds the whole measurement (warmup + samples); 0 means
	// none. On expiry the measuring goroutine is abandoned (Go cannot
	// preempt a hot kernel) and ErrMeasureTimeout is returned, so one
	// pathological format cannot hang a labeling harness.
	Timeout time.Duration
}

func (o *MeasureOpts) defaults() {
	if o.Repeats < 1 {
		o.Repeats = 9
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	} else if o.Warmup == 0 {
		o.Warmup = 1
	}
}

// ErrMeasureTimeout reports that a kernel measurement exceeded its
// deadline; callers treat the format as non-competitive (+Inf) rather
// than hanging the harness on it.
var ErrMeasureTimeout = errors.New("machine: measurement deadline exceeded")

// RobustEstimate condenses repeated timing samples into one number:
// samples further than 3 scaled-MAD from the median are rejected as
// outliers (GC pauses, scheduler preemption, a neighbour stealing the
// core), and the mean of the survivors is returned. Compared to the
// bare min-of-N this estimator is stable under both positive spikes
// and the occasional too-good-to-be-true sample from a warm branch
// predictor, which matters when labels feed a training corpus: a label
// is a comparison between estimates, and min-of-N has no variance
// control at small N. Shared by the labeler (MeasureLabel) and the
// spmvbench harness so both report the same statistic.
func RobustEstimate(samples []float64) float64 {
	switch len(samples) {
	case 0:
		return math.NaN()
	case 1:
		return samples[0]
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	med := median(sorted)
	dev := make([]float64, len(sorted))
	for i, s := range sorted {
		dev[i] = math.Abs(s - med)
	}
	sort.Float64s(dev)
	// 1.4826 scales MAD to the standard deviation under normality.
	cutoff := 3 * 1.4826 * median(dev)
	if cutoff == 0 {
		// Degenerate spread (identical samples, or >half identical):
		// fall back to a small relative tolerance around the median.
		cutoff = 0.05 * med
	}
	sum, n := 0.0, 0
	for _, s := range sorted {
		if math.Abs(s-med) <= cutoff {
			sum += s
			n++
		}
	}
	if n == 0 {
		return med
	}
	return sum / float64(n)
}

// median of a sorted slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Measure times real SpMV iterations of m with the Go kernels on the
// host machine: the wall-clock labelling path. It runs `repeats` timed
// iterations after a warmup and returns the MAD-trimmed mean in
// seconds (see RobustEstimate).
func Measure(m sparse.Matrix, workers, repeats int) float64 {
	sec, err := MeasureCtx(context.Background(), m, MeasureOpts{Workers: workers, Repeats: repeats})
	if err != nil {
		// Unreachable without a timeout or cancellation.
		panic(err)
	}
	return sec
}

// MeasureCtx is Measure with a deadline and cancellation: the sampling
// loop runs in its own goroutine, and expiry of opts.Timeout or ctx
// abandons it with ErrMeasureTimeout / ctx.Err().
func MeasureCtx(ctx context.Context, m sparse.Matrix, opts MeasureOpts) (float64, error) {
	opts.defaults()
	if opts.Timeout <= 0 && ctx.Done() == nil {
		return measure(m, opts), nil
	}
	ch := make(chan float64, 1)
	go func() { ch <- measure(m, opts) }()
	var deadline <-chan time.Time
	if opts.Timeout > 0 {
		t := time.NewTimer(opts.Timeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case sec := <-ch:
		return sec, nil
	case <-deadline:
		return 0, fmt.Errorf("%w (%v)", ErrMeasureTimeout, opts.Timeout)
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// measure runs the warmup + sampling loop synchronously.
func measure(m sparse.Matrix, opts MeasureOpts) float64 {
	rows, cols := m.Dims()
	x := make([]float64, cols)
	for i := range x {
		x[i] = 1.0 + float64(i%7)*0.25
	}
	y := make([]float64, rows)
	k, err := spmv.ForFormat(m.Format())
	if err != nil {
		panic(err)
	}
	for w := 0; w < opts.Warmup; w++ {
		k.Mul(y, m, x, opts.Workers)
	}
	samples := make([]float64, opts.Repeats)
	for r := range samples {
		start := time.Now()
		k.Mul(y, m, x, opts.Workers)
		samples[r] = time.Since(start).Seconds()
	}
	return RobustEstimate(samples)
}

// MeasureLabel labels a matrix by real wall-clock measurement across the
// format set, mirroring the paper's 50-repetition protocol (use a lower
// repeat count for large datasets). Formats whose conversion would
// explode memory (e.g. DIA on scattered matrices, where every nonzero
// opens a dense lane) are skipped with +Inf time — they are trivially
// non-competitive and real auto-tuners refuse the conversion for the
// same reason.
func MeasureLabel(c *sparse.COO, formats []sparse.Format, workers, repeats int) (sparse.Format, map[sparse.Format]float64, error) {
	return MeasureLabelCtx(context.Background(), c, formats, MeasureOpts{Workers: workers, Repeats: repeats})
}

// MeasureLabelCtx is MeasureLabel with per-format deadlines and
// cancellation. A format that exceeds opts.Timeout is recorded as +Inf
// — non-competitive by fiat, exactly like a refused conversion — so one
// pathological (matrix, format) pair cannot stall corpus labeling;
// cancellation of ctx aborts the whole matrix with ctx.Err().
func MeasureLabelCtx(ctx context.Context, c *sparse.COO, formats []sparse.Format, opts MeasureOpts) (sparse.Format, map[sparse.Format]float64, error) {
	st := sparse.ComputeStats(c)
	times := make(map[sparse.Format]float64, len(formats))
	best := sparse.Format(-1)
	for _, f := range formats {
		if err := ctx.Err(); err != nil {
			return 0, nil, err
		}
		if blowup(st, f) {
			times[f] = math.Inf(1)
			continue
		}
		m, err := sparse.Convert(c, f)
		if err != nil {
			return 0, nil, err
		}
		sec, err := MeasureCtx(ctx, m, opts)
		switch {
		case errors.Is(err, ErrMeasureTimeout):
			times[f] = math.Inf(1)
			continue
		case err != nil:
			return 0, nil, err
		}
		times[f] = sec
		if best < 0 || times[f] < times[best] {
			best = f
		}
	}
	if best < 0 {
		return 0, nil, fmt.Errorf("machine: every format was skipped for %dx%d matrix", st.Rows, st.Cols)
	}
	return best, times, nil
}

// blowup reports whether materialising format f would inflate storage
// beyond 24x the nonzero payload or past an absolute 256 MiB budget.
func blowup(st sparse.Stats, f sparse.Format) bool {
	var slots float64
	switch f {
	case sparse.FormatDIA:
		slots = float64(st.NumDiags) * float64(st.Rows)
	case sparse.FormatELL:
		slots = float64(st.MaxRowNNZ) * float64(st.Rows)
	case sparse.FormatBSR:
		slots = float64(st.NumBlocks) * 16
	default:
		return false
	}
	bytes := slots * 8
	return bytes > 256<<20 || slots > 24*float64(st.NNZ)+4096
}
