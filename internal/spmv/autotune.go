// Autotuning for the SpMV hot loops, in the AlphaSparse spirit scaled
// to pure Go: instead of one kernel per format, each tunable format
// (CSR, ELL, BSR) carries a family of block/tile/unroll variants
// (tuned.go), and a small load-time tuner benchmarks the candidates on
// deterministic synthetic matrices bucketed by nonzero count. The
// winning variant per (format, size bucket) lands in a versioned
// per-process dispatch table consulted lock-free by every Mul call;
// the table can be persisted to JSON and loaded back, so a fleet of
// serve replicas (or a resumed labeling run) skips the sweep.
package spmv

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/sparse"
)

// variant identifies one tuned kernel body within a format's family.
type variant uint8

// Variant IDs. The zero value is the reference body, so a zero table
// dispatches exactly like the pre-tuning kernels.
const (
	variantRef variant = iota
	variantUnroll4
	variantUnroll8
	numVariants
)

// String names the variant as persisted in table JSON.
func (v variant) String() string {
	switch v {
	case variantRef:
		return "ref"
	case variantUnroll4:
		return "unroll4"
	case variantUnroll8:
		return "unroll8"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// parseVariant inverts String; unknown names map to the reference body
// (a stale table entry must never make dispatch panic).
func parseVariant(s string) variant {
	switch s {
	case "unroll4":
		return variantUnroll4
	case "unroll8":
		return variantUnroll8
	default:
		return variantRef
	}
}

// TableVersion is the dispatch-table schema version. A persisted table
// with a different version is rejected at load: variant names and
// bucket semantics may have changed, and silently honouring a stale
// table would pin kernels to meaningless choices.
const TableVersion = 1

const (
	minBucket = 6  // <= 64 nonzeros: one bucket, tuning noise dominates below this
	maxBucket = 28 // >= 256M nonzeros: clamp, the asymptote is reached long before
	numBucket = maxBucket - minBucket + 1
)

// bucketOf maps a nonzero count to its size-bucket index (log2,
// clamped).
func bucketOf(nnz int) int {
	return bucketIndex(bits.Len(uint(nnz)))
}

// bucketIndex clamps a raw log2 bucket (as used in persisted table
// keys) to the dense index space.
func bucketIndex(raw int) int {
	if raw < minBucket {
		return 0
	}
	if raw > maxBucket {
		return numBucket - 1
	}
	return raw - minBucket
}

// tunedFormats are the formats with variant families, in sweep order.
var tunedFormats = []sparse.Format{sparse.FormatCSR, sparse.FormatELL, sparse.FormatBSR}

// Entry is one tuned decision: the winning variant for a (format,
// bucket) cell and the row tile used to chunk the parallel partition
// (0 = split evenly across workers).
type Entry struct {
	Variant string `json:"variant"`
	Tile    int    `json:"tile,omitempty"`
}

// Table is the serialisable dispatch table. Entries are keyed
// "FORMAT/bucket" (e.g. "CSR/17", bucket = floor(log2 nnz)); cells
// without an entry dispatch to the built-in default for the format.
type Table struct {
	Version    int              `json:"version"`
	GoArch     string           `json:"goarch"`
	GoMaxProcs int              `json:"gomaxprocs"`
	SweptIn    string           `json:"swept_in,omitempty"` // wall time spent sweeping
	Entries    map[string]Entry `json:"entries"`
}

// dispatchTable is the compiled, immutable lookup form: a dense
// [format][bucket] matrix swapped atomically into the process default,
// with a row for every format number up to the last (CSR5).
type dispatchTable struct {
	variants [sparse.FormatCSR5 + 1][numBucket]variant
	tiles    [sparse.FormatCSR5 + 1][numBucket]int32
}

// defaultDispatch holds the built-in choices used for cells no sweep
// has visited: the unrolled bodies won on every bucket of every format
// family on the machines this was developed on, and they are never
// asymptotically worse than the reference loop (the scalar tail is the
// reference loop), so "unrolled until told otherwise" is the safe
// default. A sweep only ever refines this.
func defaultDispatch() *dispatchTable {
	var d dispatchTable
	for _, f := range tunedFormats {
		for b := 0; b < numBucket; b++ {
			d.variants[f][b] = variantUnroll4
		}
	}
	return &d
}

// current is the process-wide dispatch table (never nil after init).
var current atomic.Pointer[dispatchTable]

func init() { current.Store(defaultDispatch()) }

// pick returns the variant and tile for a format/size cell.
func pick(f sparse.Format, nnz int) (variant, int) {
	d := current.Load()
	if int(f) >= len(d.variants) {
		return variantRef, 0
	}
	b := bucketOf(nnz)
	return d.variants[f][b], int(d.tiles[f][b])
}

// compile lowers a Table onto the built-in defaults.
func compile(t *Table) *dispatchTable {
	d := defaultDispatch()
	if t == nil {
		return d
	}
	for key, e := range t.Entries {
		name, bucketStr, ok := strings.Cut(key, "/")
		if !ok {
			continue
		}
		bucket, err := strconv.Atoi(bucketStr)
		if err != nil {
			continue
		}
		f, ok := formatByName(name)
		if !ok || bucket < minBucket || bucket > maxBucket {
			continue
		}
		idx := bucketIndex(bucket)
		d.variants[f][idx] = parseVariant(e.Variant)
		d.tiles[f][idx] = int32(e.Tile)
	}
	return d
}

func formatByName(name string) (sparse.Format, bool) {
	for _, f := range tunedFormats {
		if f.String() == name {
			return f, true
		}
	}
	return 0, false
}

// Install makes t the process-wide dispatch table (nil restores the
// built-in defaults). Safe to call concurrently with running kernels:
// in-flight Mul calls finish on the table they loaded.
func Install(t *Table) {
	current.Store(compile(t))
}

// SaveTableFile persists a table as JSON, atomically: a sweep that is
// killed or fails mid-write leaves the installed table as it was.
func SaveTableFile(path string, t *Table) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteBytes(path, append(data, '\n'))
}

// LoadTableFile reads a persisted table, rejecting version or schema
// mismatches with an error so callers fall back to a fresh sweep.
func LoadTableFile(path string) (*Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Table
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("spmv: autotune table %s: %w", path, err)
	}
	if t.Version != TableVersion {
		return nil, fmt.Errorf("spmv: autotune table %s: version %d, want %d", path, t.Version, TableVersion)
	}
	if t.Entries == nil {
		return nil, fmt.Errorf("spmv: autotune table %s: no entries", path)
	}
	return &t, nil
}

// SweepOpts parameterises an autotune sweep.
type SweepOpts struct {
	// Seed makes the synthetic sweep matrices deterministic: the same
	// seed and bucket always produce bit-identical candidates workloads.
	Seed int64
	// Budget bounds the total sweep wall time (default 2s). Buckets are
	// visited smallest-first; when the budget runs out the remaining
	// cells keep the built-in defaults — a partial table is valid.
	Budget time.Duration
	// Reps is the timing repetitions per candidate; the minimum is kept
	// (default 3, clamped to >= 1).
	Reps int
	// Buckets lists the log2-nnz buckets to sweep (default 10..18: one
	// thousand to a quarter-million nonzeros, the serving and labeling
	// range). Values outside [minBucket, maxBucket] are ignored.
	Buckets []int
	// Formats restricts the sweep (default: all tuned formats).
	Formats []sparse.Format
	// Tiles lists parallel row-tile candidates to record for each cell
	// (default: none, keep even splitting). The tile does not change the
	// serial winner; it is carried into the table for parallel callers.
	Tiles []int
	// measure overrides candidate timing for tests: it must return a
	// deterministic cost for (format, bucket, variant). nil = wall clock.
	measure func(f sparse.Format, bucket int, v variant, run func()) time.Duration
}

func (o *SweepOpts) defaults() {
	if o.Budget <= 0 {
		o.Budget = 2 * time.Second
	}
	if o.Reps < 1 {
		o.Reps = 3
	}
	if len(o.Buckets) == 0 {
		o.Buckets = []int{10, 12, 14, 16, 18}
	}
	if len(o.Formats) == 0 {
		o.Formats = tunedFormats
	}
}

// Sweep benchmarks every kernel variant of every requested format on
// deterministic synthetic matrices, one per size bucket, and returns
// the winning table. The sweep is deterministic given a Seed and a
// deterministic timing source: candidates are enumerated in fixed
// order and a later candidate must strictly beat the incumbent to win,
// so ties resolve to the lower variant ID.
func Sweep(opts SweepOpts) *Table {
	opts.defaults()
	start := time.Now()
	t := &Table{
		Version:    TableVersion,
		GoArch:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Entries:    map[string]Entry{},
	}
	buckets := append([]int(nil), opts.Buckets...)
	sort.Ints(buckets)
	for _, rawBucket := range buckets {
		if rawBucket < minBucket || rawBucket > maxBucket {
			continue
		}
		for _, f := range opts.Formats {
			if _, ok := formatByName(f.String()); !ok {
				continue
			}
			if time.Since(start) > opts.Budget && len(t.Entries) > 0 {
				t.SweptIn = time.Since(start).String()
				return t
			}
			m, x, y := sweepWorkload(f, rawBucket, opts.Seed)
			if m == nil {
				continue
			}
			best, bestCost := variantRef, time.Duration(0)
			for v := variantRef; v < numVariants; v++ {
				run := func() { mulVariant(f, v, y, m, x) }
				var cost time.Duration
				if opts.measure != nil {
					cost = opts.measure(f, rawBucket, v, run)
				} else {
					cost = timeMin(run, opts.Reps)
				}
				if v == variantRef || cost < bestCost {
					best, bestCost = v, cost
				}
			}
			e := Entry{Variant: best.String()}
			if len(opts.Tiles) > 0 {
				e.Tile = opts.Tiles[0]
				for _, tile := range opts.Tiles[1:] {
					if closerTile(tile, e.Tile, rawBucket) {
						e.Tile = tile
					}
				}
			}
			t.Entries[fmt.Sprintf("%s/%d", f, rawBucket)] = e
		}
	}
	t.SweptIn = time.Since(start).String()
	return t
}

// closerTile prefers the tile nearest to 1/8 of the bucket's rows —
// enough chunks for load balance, few enough that claim overhead stays
// invisible. Deterministic, so the table is too.
func closerTile(a, b, bucket int) bool {
	target := (1 << bucket) / 8 / 8 // rows/8 at ~8 nnz per row
	if target < 1 {
		target = 1
	}
	da, db := a-target, b-target
	if da < 0 {
		da = -da
	}
	if db < 0 {
		db = -db
	}
	return da < db
}

// timeMin runs fn reps times (after one warmup) and returns the
// fastest observation — min-of-N is the least noisy estimator of the
// true cost on a shared machine.
func timeMin(fn func(), reps int) time.Duration {
	fn()
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// mulVariant runs one specific variant serially over the whole matrix —
// the sweep's measurement target and the equivalence tests' harness.
func mulVariant(f sparse.Format, v variant, y []float64, m sparse.Matrix, x []float64) {
	switch f {
	case sparse.FormatCSR:
		a := m.(*sparse.CSR)
		rows, _ := a.Dims()
		csrBodies[v](y, a, x, 0, rows)
	case sparse.FormatELL:
		a := m.(*sparse.ELL)
		rows, _ := a.Dims()
		ellBodies[v](y, a, x, 0, rows)
	case sparse.FormatBSR:
		a := m.(*sparse.BSR)
		bsrBodies[v](y, a, x, 0, a.BlockRows)
	default:
		panic(fmt.Sprintf("spmv: no variants for format %v", f))
	}
}

// sweepWorkload builds the deterministic benchmark matrix for one
// (format, bucket) cell: ~2^bucket nonzeros at 8 per row for the
// row-stream formats, and dense 4x4 blocks for BSR (a scattered matrix
// under BSR measures conversion pathology, not the kernel).
func sweepWorkload(f sparse.Format, bucket int, seed int64) (sparse.Matrix, []float64, []float64) {
	nnz := 1 << bucket
	rows := nnz / 8
	if rows < 16 {
		rows = 16
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(bucket)*31 + int64(f)))
	var es []sparse.Entry
	if f == sparse.FormatBSR {
		nblocks := nnz / 16
		if nblocks < 1 {
			nblocks = 1
		}
		brows := rows / 4
		if brows < 4 {
			brows = 4
		}
		rows = brows * 4
		seen := map[[2]int]bool{}
		for len(seen) < nblocks {
			br, bc := rng.Intn(brows), rng.Intn(brows)
			if seen[[2]int{br, bc}] {
				continue
			}
			seen[[2]int{br, bc}] = true
			for lr := 0; lr < 4; lr++ {
				for lc := 0; lc < 4; lc++ {
					es = append(es, sparse.Entry{Row: br*4 + lr, Col: bc*4 + lc, Val: rng.NormFloat64() + 0.1})
				}
			}
		}
	} else {
		for k := 0; k < nnz; k++ {
			es = append(es, sparse.Entry{Row: rng.Intn(rows), Col: rng.Intn(rows), Val: rng.NormFloat64() + 0.1})
		}
	}
	c, err := sparse.NewCOO(rows, rows, es)
	if err != nil {
		return nil, nil, nil
	}
	m, err := sparse.Convert(c, f)
	if err != nil {
		return nil, nil, nil
	}
	x := make([]float64, rows)
	for i := range x {
		x[i] = 1.0 + float64(i%5)*0.25
	}
	return m, x, make([]float64, rows)
}

// AutoTune runs a default budgeted sweep and installs the result as
// the process dispatch table, returning it for persistence. The
// convenience entry point for cmd main functions:
//
//	table := spmv.AutoTune(2*time.Second, 1)
//	_ = spmv.SaveTableFile(path, table)
func AutoTune(budget time.Duration, seed int64) *Table {
	t := Sweep(SweepOpts{Seed: seed, Budget: budget})
	Install(t)
	return t
}
