package machine

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// TestLabelPinned pins Label's answer and the bits of every modelled
// time for one (seed, id) per platform to what the commit before the
// labeler reused its RNG returned (one rand.New per format then): a
// corpus labelled before and after must be the same corpus. amd64 only:
// the cost model's floats are pinned as amd64 computes them (no fused
// multiply-add).
func TestLabelPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("pinned times were recorded on amd64")
	}
	st := sparse.ComputeStats(synthgen.Banded(300, 3, 0.9, 7))
	for _, pin := range []struct {
		platform string
		best     sparse.Format
		times    map[sparse.Format]uint64
	}{
		{"xeonlike", sparse.FormatDIA, map[sparse.Format]uint64{
			sparse.FormatCOO: 0x3eca075487caa604,
			sparse.FormatCSR: 0x3ec4521c74146f60,
			sparse.FormatDIA: 0x3ec2c650b71c373d,
			sparse.FormatELL: 0x3ec4007d18c03a4b,
		}},
		{"a8like", sparse.FormatDIA, map[sparse.Format]uint64{
			sparse.FormatCOO: 0x3ee0647b17d4ebc3,
			sparse.FormatCSR: 0x3ecdc42d00b4f50a,
			sparse.FormatDIA: 0x3ec4f727da22704e,
			sparse.FormatELL: 0x3ecb8b2b54fca905,
		}},
		{"titanlike", sparse.FormatELL, map[sparse.Format]uint64{
			sparse.FormatCSR:  0x3e9a970808ec408c,
			sparse.FormatELL:  0x3e9999f8ee44d320,
			sparse.FormatHYB:  0x3e99cf554ea720c6,
			sparse.FormatBSR:  0x3e99cc435f0c8323,
			sparse.FormatCSR5: 0x3e9bc2e1fbd3b6a4,
			sparse.FormatCOO:  0x3ef46ed900bb78d2,
		}},
	} {
		p, err := PlatformByName(pin.platform)
		if err != nil {
			t.Fatal(err)
		}
		best, times := NewLabeler(p, 42).Label(st, 1234)
		if best != pin.best {
			t.Errorf("%s: label %v, pinned %v", pin.platform, best, pin.best)
		}
		if len(times) != len(pin.times) {
			t.Errorf("%s: %d times, pinned %d", pin.platform, len(times), len(pin.times))
		}
		for f, want := range pin.times {
			if got := math.Float64bits(times[f]); got != want {
				t.Errorf("%s %v: time bits %#x (%g), pinned %#x (%g)", pin.platform, f, got, times[f], want, math.Float64frombits(want))
			}
		}
	}
}

// BenchmarkLabel is the labeler on statistics already computed — the
// cost model for every candidate format plus its noise draw — cycling
// through the serving mixture. Guarded by scripts/benchgate.
func BenchmarkLabel(b *testing.B) {
	var sts []sparse.Stats
	for _, sp := range synthgen.SampleSpecs(64, 21, 384) {
		sts = append(sts, sparse.ComputeStats(synthgen.Build(sp)))
	}
	lab := NewLabeler(XeonLike(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lab.Label(sts[i%len(sts)], uint64(i))
	}
}
