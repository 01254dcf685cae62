package selector

import (
	"testing"

	"repro/internal/represent"
	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// BenchmarkPredict is the whole decision at the geometry that ships —
// DefaultConfig, what core.Train and the end-to-end benchmark's model
// use — on a 16k-nonzero matrix: representation written into the
// engine's arena, forward pass, probabilities gathered. Guarded by
// scripts/benchgate.
func BenchmarkPredict(b *testing.B) {
	m := synthgen.Random(2048, 2048, 2048*8, 1)
	for _, kind := range []represent.Kind{represent.KindBinary, represent.KindHistogram} {
		s, err := New(DefaultConfig(kind, sparse.CPUFormats()))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Predict(m); err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Predict(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
