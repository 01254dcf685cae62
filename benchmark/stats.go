package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: with fewer, the figure is one or two outliers, not a
// property of the distribution.
const minBeyond = 10

// tailPercentiles are the candidates for "the highest percentile the
// sample supports", highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// quantile returns the q-quantile (0..1) of an ascending slice by the
// nearest-rank rule; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), q)]
}

// rankIndex is the nearest-rank index of the q-quantile among n sorted
// samples: rank ceil(q·n), counted from one.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1 // epsilon: 0.999*n must not round up a rank
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// beyond counts the samples above the p-th percentile's rank.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p/100)
}

// highestSupported returns the highest candidate percentile with at
// least minBeyond samples beyond it, or 50 when even the lowest
// candidate is unsupported.
func highestSupported(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// The machine this runs on is shared: neighbours take a tenth to a sixth
// of the CPU in bursts, and for tens of seconds at a time it runs at
// two thirds of its speed. That noise only ever adds time, so wherever
// the same work is timed more than once the harness reports the
// quartile on the quiet side — the lower quartile of a time, the upper
// quartile of a rate — and not the median: a run that spends half its
// window beside a busy neighbour still reports what the program costs.
// A quartile, not the minimum, so that one lucky sample decides nothing.

func lowerQuartile(v []float64) float64 { return quantile(sortedCopy(v), 0.25) }
func upperQuartile(v []float64) float64 { return quantile(sortedCopy(v), 0.75) }

// quiet replaces each sample by the lower quartile of its key's
// samples: key names the work (a pool entry, a record), so repeats of the
// same work stand for what that work costs undisturbed, while medians
// and means over the result are still taken over the mix as it was sent.
func quiet(keys []int, v []float64) []float64 {
	byKey := map[int][]float64{}
	for i, k := range keys {
		byKey[k] = append(byKey[k], v[i])
	}
	q := make(map[int]float64, len(byKey))
	for k, s := range byKey {
		q[k] = lowerQuartile(s)
	}
	out := make([]float64, len(v))
	for i, k := range keys {
		out[i] = q[k]
	}
	return out
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a share of nothing is reported as 0,
// the value of a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// dist summarises a latency sample: the tail percentiles the layer table
// reports, and a printable line with the median, the highest supported
// percentile and the sample count.
type dist struct {
	p95, p99 float64
	line     string
}

func summarise(samples []float64, unit string) dist {
	s := sortedCopy(samples)
	d := dist{p95: quantile(s, 0.95), p99: quantile(s, 0.99)}
	hi := highestSupported(len(s))
	d.line = fmt.Sprintf("n=%d p50=%.4g%s p95=%.4g%s p99=%.4g%s highest supported p%g=%.4g%s max=%.4g%s",
		len(s), quantile(s, 0.5), unit, d.p95, unit, d.p99, unit, hi, quantile(s, hi/100), unit, quantile(s, 1), unit)
	return d
}

// relSpread is the interquartile range as a share of the median — the
// statistic the regression bounds are written against. The quartiles
// follow the "exclusive" method of Python's statistics.quantiles(n=4).
func relSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sortedCopy(v)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	r := (q(3) - q(1)) / med
	if r < 0 {
		r = -r
	}
	return r
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
