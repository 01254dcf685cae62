// Package machine models the execution platforms of the paper's Table 1
// and produces the per-format SpMV time estimates used to label training
// matrices. It substitutes for the paper's hardware measurement runs
// (Intel Xeon + SMATLib/MKL, AMD A8, NVIDIA TITAN X + cuSPARSE/CSR5)
// with analytical cost models that encode the documented mechanisms by
// which each format wins or loses — memory traffic including padding
// waste, gather locality into x, per-row loop overhead, SIMD
// vectorisability, GPU warp divergence under row-length imbalance, and
// atomic-update costs — plus seeded measurement noise. A wall-clock
// path (Measure) can instead label with real timings of the Go kernels
// on the host machine.
package machine

import (
	"fmt"

	"repro/internal/sparse"
)

// Kind distinguishes latency-oriented multicores from throughput-
// oriented processors.
type Kind int

// Platform kinds.
const (
	CPU Kind = iota
	GPU
)

// String returns "CPU" or "GPU".
func (k Kind) String() string {
	if k == GPU {
		return "GPU"
	}
	return "CPU"
}

// Platform describes one machine, mirroring the columns of the paper's
// Table 1 plus the microarchitectural parameters the cost model needs.
type Platform struct {
	Name    string
	Kind    Kind
	Cores   int     // physical cores (GPU: CUDA cores)
	FreqGHz float64 // core clock

	MemBandwidthGBs float64 // peak memory bandwidth
	LLCBytes        int64   // last-level cache capacity
	CacheLineBytes  int

	SIMDWidth int // doubles per vector operation (GPU: warp size)

	// GatherCacheBytes is the effective cache capacity available to the
	// irregular x-gather stream — roughly the L1 plus the slice of L2 a
	// thread keeps for itself while the format arrays stream through.
	// Gathers into an x larger than this miss at a rate set by the
	// matrix's spatial locality (distance-to-diagonal concentration),
	// which is exactly the information the paper's histogram
	// representation preserves and scalar feature vectors drop.
	GatherCacheBytes int64

	// Per-operation overheads, nanoseconds.
	RowOverheadNs    float64 // row-loop bookkeeping per row (CSR-style)
	AtomicPenaltyNs  float64 // per scattered y update (COO on GPU)
	KernelLaunchNs   float64 // fixed cost per SpMV invocation
	GatherLatencyNs  float64 // extra latency per x gather that misses LLC
	DivergenceFactor float64 // GPU: cost multiplier scale per unit row-CV
}

// FormatSet returns the selection set the paper uses on this platform
// kind: COO/CSR/DIA/ELL on CPU (Table 2), the six cuSPARSE+CSR5 formats
// on GPU (Table 3).
func (p *Platform) FormatSet() []sparse.Format {
	if p.Kind == GPU {
		return sparse.GPUFormats()
	}
	return sparse.CPUFormats()
}

// String summarises the platform.
func (p *Platform) String() string {
	return fmt.Sprintf("%s(%s, %d cores @ %.2f GHz, %.0f GB/s, LLC %d MB)",
		p.Name, p.Kind, p.Cores, p.FreqGHz, p.MemBandwidthGBs, p.LLCBytes>>20)
}

// XeonLike models the Intel Xeon E5-4603 system of Table 1 (24 cores,
// 2.4 GHz, 103 GB/s, large LLC).
func XeonLike() *Platform {
	return &Platform{
		Name: "xeonlike", Kind: CPU,
		Cores: 24, FreqGHz: 2.4,
		MemBandwidthGBs: 103, LLCBytes: 30 << 20, CacheLineBytes: 64,
		GatherCacheBytes: 16 << 10,
		SIMDWidth:        4,
		RowOverheadNs:    1.2,
		AtomicPenaltyNs:  6,
		KernelLaunchNs:   2000,
		GatherLatencyNs:  70,
	}
}

// A8Like models the AMD A8-7600 system of Table 1 (4 cores, 3.1 GHz,
// 25.6 GB/s, small LLC). The much smaller cache and bandwidth shift the
// format boundaries relative to XeonLike, which is what makes
// cross-architecture migration (Section 6) non-trivial.
func A8Like() *Platform {
	return &Platform{
		Name: "a8like", Kind: CPU,
		Cores: 4, FreqGHz: 3.1,
		MemBandwidthGBs: 25.6, LLCBytes: 4 << 20, CacheLineBytes: 64,
		GatherCacheBytes: 8 << 10,
		SIMDWidth:        4,
		// The A8's slim in-order-ish cores pay far more per-row loop
		// bookkeeping than the Xeon's; with only 4 cores to spread it
		// over, this is the term that moves the CSR/DIA/ELL boundaries
		// between the two CPU platforms (the architecture dependence
		// Section 6 exploits).
		RowOverheadNs:   4.0,
		AtomicPenaltyNs: 8,
		KernelLaunchNs:  1500,
		GatherLatencyNs: 90,
	}
}

// TitanLike models the NVIDIA GeForce GTX TITAN X of Table 1 (3072 CUDA
// cores, 1.08 GHz, 168 GB/s as reported in the paper's table).
func TitanLike() *Platform {
	return &Platform{
		Name: "titanlike", Kind: GPU,
		Cores: 3072, FreqGHz: 1.08,
		MemBandwidthGBs: 168, LLCBytes: 3 << 20, CacheLineBytes: 128,
		GatherCacheBytes: 12 << 10,
		SIMDWidth:        32,
		RowOverheadNs:    0.02,
		// Contended atomic y-updates make COO uncompetitive on the GPU
		// across the whole corpus (Table 3 reports zero COO winners).
		AtomicPenaltyNs: 10,
		// Effective per-iteration launch cost: SpMV is measured over
		// pipelined repetitions (the paper repeats 50×), which hides
		// most of the raw ~10 µs launch latency. Keeping this small
		// also keeps format labels driven by kernel behaviour rather
		// than a constant.
		KernelLaunchNs:   150,
		GatherLatencyNs:  0.6,
		DivergenceFactor: 0.9,
	}
}

// Platforms returns the three Table 1 presets keyed by name.
func Platforms() map[string]*Platform {
	ps := []*Platform{XeonLike(), A8Like(), TitanLike()}
	m := make(map[string]*Platform, len(ps))
	for _, p := range ps {
		m[p.Name] = p
	}
	return m
}

// PlatformByName returns a Table 1 preset.
func PlatformByName(name string) (*Platform, error) {
	p, ok := Platforms()[name]
	if !ok {
		return nil, fmt.Errorf("machine: unknown platform %q (want xeonlike, a8like or titanlike)", name)
	}
	return p, nil
}
