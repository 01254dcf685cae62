package represent

import (
	"testing"

	"repro/internal/synthgen"
)

// BenchmarkNormalize measures representation construction into float64
// tensors — what training samples and the end-to-end harness's
// represent span pay — per representation kind at the paper's 128×128
// grid. Guarded by scripts/benchgate.
func BenchmarkNormalize(b *testing.B) {
	m := synthgen.Random(2048, 2048, 2048*8, 1)
	for _, k := range Kinds() {
		cfg := Config{Kind: k, Size: 128, Bins: 50}
		b.Run(k.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Normalize(m, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNormalizeInto is the inference-path preprocessing step: the
// representation written into caller-owned float32 storage at the
// geometry that ships (selector.DefaultConfig). Its allocs/op baseline
// is 0, which scripts/benchgate enforces exactly.
func BenchmarkNormalizeInto(b *testing.B) {
	m := synthgen.Random(2048, 2048, 2048*8, 1)
	for _, k := range Kinds() {
		cfg := Config{Kind: k, Size: 32, Bins: 16}
		dst := make([]float32, cfg.Len())
		b.Run(k.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := Into(dst, &m.Pattern, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
