package main

import (
	"math"
	"testing"
)

func TestHighestSupportedPercentile(t *testing.T) {
	// The rule: the highest candidate percentile with at least ten
	// samples beyond its rank.
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50},       // nothing is supported
		{40, 75},      // p75 leaves exactly 10 beyond
		{39, 50},      // one short of p75
		{100, 90},     // p90 leaves 10, p95 only 5
		{200, 95},     // p95 leaves exactly 10
		{199, 90},     // one short of p95
		{1000, 99},    // p99 leaves exactly 10
		{999, 95},     // one short of p99
		{10000, 99.9}, // p99.9 leaves exactly 10
	} {
		if got := highestSupported(tc.n); got != tc.want {
			t.Errorf("highestSupported(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
		if p := highestSupported(tc.n); p != 50 && beyond(tc.n, p) < minBeyond {
			t.Errorf("n=%d: p%g reported with only %d samples beyond it", tc.n, p, beyond(tc.n, p))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1) // 1..100
	}
	for _, tc := range []struct{ q, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := quantile(s, tc.q); got != tc.want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
}

func TestRelSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 20], n=4)
	// = [2.75, 5.5, 8.25]: spread = (8.25 - 2.75) / 5.5 = 1.
	v := []float64{9, 1, 20, 3, 5, 4, 7, 2, 6, 8}
	if got := relSpread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("relSpread = %g, want 1", got)
	}
	if got := relSpread([]float64{3, 3, 3, 3, 3}); got != 0 {
		t.Errorf("relSpread of a constant = %g, want 0", got)
	}
}

func TestQuietUsesEachKeysLowerQuartile(t *testing.T) {
	// Key 1 is sent five times and is disturbed twice; key 2 is sent
	// three times. Lower quartiles: key 1 -> 2.1 (second of five), key 2
	// -> 9 (first of three); over the eight requests as sent the median
	// is key 1's 2.1, where the plain median reads 9.
	keys := []int{1, 2, 1, 1, 2, 1, 2, 1}
	v := []float64{2.2, 9, 2, 40, 11, 2.1, 10, 35}
	if got := median(quiet(keys, v)); got != 2.1 {
		t.Errorf("median of quiet = %g, want 2.1", got)
	}
	if got, want := sum(quiet(keys, v)), 5*2.1+3*9; math.Abs(got-want) > 1e-12 {
		t.Errorf("sum of quiet = %g, want %g", got, want)
	}
	if got := median(v); got != 9 {
		t.Errorf("median = %g, want 9", got)
	}
	if lo, hi := lowerQuartile(v), upperQuartile(v); lo != 2.1 || hi != 11 {
		t.Errorf("quartiles = %g, %g, want 2.1, 11", lo, hi)
	}
	if got := median(quiet(nil, nil)); got != 0 {
		t.Errorf("median of no samples = %g, want 0", got)
	}
}
