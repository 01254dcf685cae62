package dtree

import (
	"testing"

	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// BenchmarkPredict is the whole answer of the fallback rung — the lite
// statistics sweep, the baseline feature vector, the tree walk — per
// matrix of the serving mixture (maxn 384): what brownout and an open
// breaker pay in place of the CNN. Guarded by scripts/benchgate.
func BenchmarkPredict(b *testing.B) {
	var ms []*sparse.COO
	for _, sp := range synthgen.SampleSpecs(64, 21, 384) {
		ms = append(ms, synthgen.Build(sp))
	}
	s := Heuristic(sparse.CPUFormats())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Predict(ms[i%len(ms)]); err != nil {
			b.Fatal(err)
		}
	}
}
