package machine

import (
	"math"

	"repro/internal/sparse"
)

// EstimateSeconds returns the modelled time of one SpMV iteration for a
// matrix with the given structural statistics stored in format f on
// platform p, without measurement noise. The model composes the
// first-order mechanisms documented across the SpMV literature the paper
// builds on (Bell & Garland SC'09; Li et al. PLDI'13; Choi et al.
// PPoPP'10; Liu & Vinter ICS'15):
//
//   - memory time: total traffic (format arrays including padding waste,
//     x gathers weighted by a locality model, y writes) over effective
//     bandwidth;
//   - compute time: multiply-adds including padding lanes over the
//     platform's throughput discounted by the format's vectorisability,
//     with GPU utilisation capped by the format's available parallelism;
//   - overheads: per-row loop bookkeeping, gather latency exposure,
//     scatter/atomic penalties (COO, HYB tails), kernel launch; and
//   - GPU row-length divergence for row-per-thread formats (CSR, ELL),
//     which CSR5's balanced tiles avoid.
func (p *Platform) EstimateSeconds(st sparse.Stats, f sparse.Format) float64 {
	n := float64(st.NNZ)
	rows := float64(st.Rows)
	cols := float64(st.Cols)
	if st.NNZ == 0 {
		return p.KernelLaunchNs * 1e-9
	}

	// Locality of gathers into x: the measured miss fraction of the
	// x[col] access stream through a cache of the platform's effective
	// gather capacity, interpolated in log-capacity between the two
	// simulated points. This is a function of the full spatial nonzero
	// pattern — the quantity the paper's representations preserve.
	xBytesTotal := 8 * cols
	gatherCache := float64(p.GatherCacheBytes)
	if gatherCache <= 0 {
		gatherCache = 16 << 10
	}
	t := clamp01((math.Log2(gatherCache) - 13) / 2) // 8 KiB .. 32 KiB
	pmiss := st.GatherMiss8K + t*(st.GatherMiss32K-st.GatherMiss8K)
	// x re-reads for streaming (DIA) formats are governed by the big
	// shared cache, not the gather reach.
	xFit := math.Min(1, float64(p.LLCBytes)/xBytesTotal)
	line := float64(p.CacheLineBytes)

	gatherBytes := func(accesses float64) float64 {
		return xBytesTotal + accesses*line*pmiss
	}

	var (
		trafficBytes float64 // format arrays + x + y
		flops        float64 // multiply-adds, incl. padding lanes
		simdEff      float64 // fraction of SIMD width usable
		streamEff    float64 // achievable fraction of peak bandwidth
		overheadNs   float64
		parallelism  float64 // independent work units (GPU utilisation)
		divergence   float64 // GPU row-imbalance multiplier input
	)

	cv := st.RowNNZCV
	cores := float64(p.Cores)

	switch f {
	case sparse.FormatCSR:
		trafficBytes = 12*n + 4*(rows+1) + gatherBytes(n) + 8*rows
		flops = 2 * n
		simdEff, streamEff = 0.35, 0.80
		overheadNs = rows * p.RowOverheadNs / cores
		parallelism = rows
		divergence = cv

	case sparse.FormatCOO:
		// y: one zeroing pass plus read-modify-write per nonzero, which
		// stays cache-resident when the touched rows are few (the
		// hypersparse regime where COO wins).
		trafficBytes = 16*n + gatherBytes(n) + 8*rows + 16*math.Min(n, rows)
		flops = 2 * n
		simdEff, streamEff = 0.25, 0.75
		// Scattered y updates: software reduction on CPU, atomics on
		// GPU.
		if p.Kind == GPU {
			overheadNs = n * p.AtomicPenaltyNs
		} else {
			// Software reduction of per-worker partial vectors: one
			// extra streaming pass over y (bytes/GBps = ns).
			overheadNs = n*p.AtomicPenaltyNs/cores + rows*8/p.MemBandwidthGBs
		}
		parallelism = n

	case sparse.FormatDIA:
		lanes := float64(st.NumDiags) * rows
		trafficBytes = 8*lanes + 4*float64(st.NumDiags) + 8*rows
		// x is streamed once per diagonal; re-reads hit cache when x
		// fits.
		trafficBytes += 8 * cols * (1 + (float64(st.NumDiags)-1)*(1-xFit)*0.5)
		flops = 2 * lanes
		simdEff, streamEff = 1.0, 0.90
		overheadNs = float64(st.NumDiags) * 40 / cores
		parallelism = rows

	case sparse.FormatELL:
		slab := rows * float64(st.MaxRowNNZ)
		// Padding lanes cost bandwidth but do not gather x (sentinel
		// columns short-circuit), so gathers count real nonzeros only.
		trafficBytes = 12*slab + gatherBytes(n) + 8*rows
		flops = 2 * slab
		simdEff, streamEff = 0.90, 0.90
		overheadNs = rows * p.RowOverheadNs * 0.5 / cores
		parallelism = rows
		// Coalesced column-major ELL removes divergence on GPU; padding
		// waste is already in slab.
		divergence = 0

	case sparse.FormatHYB:
		k := float64(st.HYBK)
		tail := float64(st.HYBTailNNZ)
		slab := rows * k
		trafficBytes = 12*slab + 16*tail + gatherBytes(n) + 8*rows
		flops = 2 * (slab + tail)
		simdEff, streamEff = 0.80, 0.88
		if p.Kind == GPU {
			// Tail atomics contend far less than full-COO atomics: the
			// overflow rows are few and scattered.
			overheadNs = tail*p.AtomicPenaltyNs*0.05 + rows*p.RowOverheadNs*0.5/cores
		} else {
			overheadNs = tail*p.AtomicPenaltyNs/cores + rows*p.RowOverheadNs*0.5/cores
		}
		parallelism = rows + tail

	case sparse.FormatBSR:
		b := float64(sparse.DefaultBlockSize)
		slots := float64(st.NumBlocks) * b * b
		// Blocks read x in contiguous b-runs, so gather misses amortise
		// over the run.
		trafficBytes = 8*slots + 4*float64(st.NumBlocks) + gatherBytes(n/b) + 8*rows
		flops = 2 * slots
		simdEff, streamEff = 0.95, 0.90
		overheadNs = float64(st.NumBlocks) * 2 / cores
		parallelism = float64(st.NumBlocks)
		divergence = cv * 0.3 // block rows still imbalance mildly

	case sparse.FormatCSR5:
		tiles := n / float64(sparse.DefaultOmega*sparse.DefaultSigma)
		// CSR5 keeps CSR's arrays (incl. row pointer) and adds per-tile
		// descriptors.
		trafficBytes = 12*n + 4*(rows+1) + tiles*float64(sparse.DefaultOmega)*16 + gatherBytes(n) + 8*rows
		flops = 2 * n
		simdEff, streamEff = 0.70, 0.80
		overheadNs = tiles * 15 / cores // tile descriptor processing
		parallelism = math.Max(1, tiles) * float64(sparse.DefaultOmega)
		divergence = 0 // balanced tiles: the format's raison d'être

	default:
		trafficBytes = 16*n + gatherBytes(n)
		flops = 2 * n
		simdEff, streamEff = 0.3, 0.7
		parallelism = rows
	}

	memSec := trafficBytes / (p.MemBandwidthGBs * 1e9 * streamEff)

	effUnits := cores
	if p.Kind == GPU {
		// Throughput processors only reach peak when the format exposes
		// enough independent work to fill the machine.
		effUnits = math.Min(cores, math.Max(parallelism, 1))
	}
	compSec := flops / (effUnits * p.FreqGHz * 1e9 * float64(p.SIMDWidth) * simdEff)

	// Exposed gather latency: a fraction of gather misses is not hidden
	// by memory-level parallelism.
	gatherNs := 0.0
	if f != sparse.FormatDIA {
		gatherNs = n * pmiss * p.GatherLatencyNs / (cores * 4)
	}

	work := math.Max(memSec, compSec) + (overheadNs+gatherNs)*1e-9

	// GPU warp divergence: row-per-thread formats slow down when row
	// lengths within a warp differ. Mild imbalance (CV below ~0.45, the
	// Poisson-scatter regime) is absorbed by the warp scheduler; only
	// clear skew — power-law rows, heavy outliers — scales execution,
	// and the fixed launch cost is unaffected. This is where CSR5's
	// balanced tiles win (Liu & Vinter evaluate CSR5 on exactly such
	// scale-free matrices).
	if p.Kind == GPU && divergence > 0.45 {
		work *= 1 + p.DivergenceFactor*math.Min(divergence-0.45, 3)
	}
	return work + p.KernelLaunchNs*1e-9
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
