package sparse_test

import (
	"testing"

	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// benchSet is a fixed draw of the generator mixture; the benchmarks
// cycle through it, so ns/op is the mean over the mixture once b.N is a
// few multiples of its length.
func benchSet(count, maxN int) []*sparse.COO {
	var ms []*sparse.COO
	for _, sp := range synthgen.SampleSpecs(count, 21, maxN) {
		ms = append(ms, synthgen.Build(sp))
	}
	return ms
}

var statsSink sparse.Stats

// BenchmarkComputeStats is one structural-statistics pass per op over
// the mixture the serving pool and retrain_stream draw from (maxn 384):
// what the feedback flusher pays per captured request and ingest pays
// per record. Guarded by scripts/benchgate, allocs included: the
// scratch is the diagonal bitmap and the block stamps, nothing per
// nonzero.
func BenchmarkComputeStats(b *testing.B) {
	ms := benchSet(64, 384)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		statsSink = sparse.ComputeStats(ms[i%len(ms)])
	}
}

// BenchmarkComputeStatsLite is the same pass without the gather-cache
// simulation — the feature extraction of the decision-tree rung.
func BenchmarkComputeStatsLite(b *testing.B) {
	ms := benchSet(64, 384)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		statsSink = ms[i%len(ms)].StatsLite()
	}
}

var matrixSink sparse.Matrix

// BenchmarkConvert is sparse.Convert from canonical COO to each CPU
// format at the shipped training scale (maxn 2048). A conversion is
// paid for the format a selector chose, so each padded format runs over
// the matrices that fill at least half of its slots; CSR over all, and
// again (tall/CSR) on one 200k×3.5k matrix with 1k nonzeros, whose 200k
// row pointers are most of the work.
func BenchmarkConvert(b *testing.B) {
	fill := func(st sparse.Stats, f sparse.Format) float64 {
		switch f {
		case sparse.FormatDIA:
			return st.DIAFill
		case sparse.FormatELL:
			return st.ELLFill
		case sparse.FormatBSR:
			return st.BSRFill
		}
		return 1
	}
	all := benchSet(128, 2048)
	for _, f := range []sparse.Format{sparse.FormatCSR, sparse.FormatDIA, sparse.FormatELL, sparse.FormatBSR} {
		var ms []*sparse.COO
		for _, m := range all {
			if fill(m.StatsLite(), f) >= 0.5 {
				ms = append(ms, m)
			}
		}
		b.Run(f.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				matrixSink = sparse.MustConvert(ms[i%len(ms)], f)
			}
		})
	}
	tall := synthgen.Hypersparse(200000, 3500, 1000, 1)
	b.Run("tall/CSR", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			matrixSink = sparse.MustConvert(tall, sparse.FormatCSR)
		}
	})
}
