package machine

import (
	"math/rand"
	"testing"

	"repro/internal/sparse"
	"repro/internal/synthgen"
)

func statsOf(t *testing.T, c *sparse.COO) sparse.Stats {
	t.Helper()
	return sparse.ComputeStats(c)
}

func tridiag(n int) *sparse.COO {
	var es []sparse.Entry
	for i := 0; i < n; i++ {
		es = append(es, sparse.Entry{Row: i, Col: i, Val: 2})
		if i > 0 {
			es = append(es, sparse.Entry{Row: i, Col: i - 1, Val: -1})
		}
		if i < n-1 {
			es = append(es, sparse.Entry{Row: i, Col: i + 1, Val: -1})
		}
	}
	return sparse.MustCOO(n, n, es)
}

func uniformRows(n, per int) *sparse.COO {
	var es []sparse.Entry
	for i := 0; i < n; i++ {
		for k := 0; k < per; k++ {
			es = append(es, sparse.Entry{Row: i, Col: (i*31 + k*97) % n, Val: 1})
		}
	}
	return sparse.MustCOO(n, n, es)
}

func randomScatter(rng *rand.Rand, n, nnz int) *sparse.COO {
	es := make([]sparse.Entry, 0, nnz)
	for k := 0; k < nnz; k++ {
		es = append(es, sparse.Entry{Row: rng.Intn(n), Col: rng.Intn(n), Val: 1})
	}
	return sparse.MustCOO(n, n, es)
}

func blocky(nb int) *sparse.COO {
	// nb dense 4x4 blocks along the diagonal.
	var es []sparse.Entry
	n := nb * 4
	for b := 0; b < nb; b++ {
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				es = append(es, sparse.Entry{Row: b*4 + i, Col: b*4 + j, Val: 1})
			}
		}
	}
	return sparse.MustCOO(n, n, es)
}

func skewed(n int) *sparse.COO {
	// A few very heavy rows over a sparse background: high CV.
	var es []sparse.Entry
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < n; i++ {
		es = append(es, sparse.Entry{Row: i, Col: rng.Intn(n), Val: 1})
		es = append(es, sparse.Entry{Row: i, Col: (i + 1) % n, Val: 1})
	}
	for h := 0; h < n/50+1; h++ {
		r := rng.Intn(n)
		for j := 0; j < n/2; j++ {
			es = append(es, sparse.Entry{Row: r, Col: rng.Intn(n), Val: 1})
		}
	}
	return sparse.MustCOO(n, n, es)
}

func argminFormat(t *testing.T, p *Platform, st sparse.Stats, fs []sparse.Format) sparse.Format {
	t.Helper()
	best := fs[0]
	for _, f := range fs {
		if p.EstimateSeconds(st, f) < p.EstimateSeconds(st, best) {
			best = f
		}
	}
	return best
}

// The core behavioural contract of the cost model: the structural
// families that each format is designed for must win on it.
func TestCostModelFormatWinners(t *testing.T) {
	xeon := XeonLike()
	cpu := sparse.CPUFormats()

	if got := argminFormat(t, xeon, statsOf(t, tridiag(4096)), cpu); got != sparse.FormatDIA {
		t.Fatalf("tridiagonal: best = %v, want DIA", got)
	}
	if got := argminFormat(t, xeon, statsOf(t, uniformRows(4096, 12)), cpu); got != sparse.FormatELL {
		t.Fatalf("uniform rows: best = %v, want ELL", got)
	}
	rng := rand.New(rand.NewSource(3))
	if got := argminFormat(t, xeon, statsOf(t, randomScatter(rng, 4096, 60000)), cpu); got != sparse.FormatCSR {
		t.Fatalf("random scatter: best = %v, want CSR", got)
	}

	titan := TitanLike()
	gpu := sparse.GPUFormats()
	if got := argminFormat(t, titan, statsOf(t, blocky(2000)), gpu); got != sparse.FormatBSR {
		t.Fatalf("blocky on GPU: best = %v, want BSR", got)
	}
	if got := argminFormat(t, titan, statsOf(t, skewed(4096)), gpu); got != sparse.FormatCSR5 {
		t.Fatalf("skewed on GPU: best = %v, want CSR5", got)
	}
}

// COO must never win on the GPU (Table 3: ground truth for COO is 0).
func TestCOONeverWinsOnGPU(t *testing.T) {
	titan := TitanLike()
	gpu := sparse.GPUFormats()
	rng := rand.New(rand.NewSource(4))
	mats := []*sparse.COO{
		tridiag(512), uniformRows(512, 6), randomScatter(rng, 512, 4000),
		blocky(100), skewed(1024),
	}
	for i, c := range mats {
		if got := argminFormat(t, titan, statsOf(t, c), gpu); got == sparse.FormatCOO {
			t.Fatalf("matrix %d: COO won on GPU", i)
		}
	}
}

// Hypersparse tall matrices (rows >> nnz) pay CSR's per-row costs; COO
// must win there on CPU, the regime SMAT documents for COO.
func TestCOOWinsHypersparseCPU(t *testing.T) {
	var es []sparse.Entry
	rng := rand.New(rand.NewSource(5))
	rows := 200000
	for k := 0; k < 2000; k++ {
		es = append(es, sparse.Entry{Row: rng.Intn(rows), Col: rng.Intn(1000), Val: 1})
	}
	c := sparse.MustCOO(rows, 1000, es)
	if got := argminFormat(t, XeonLike(), statsOf(t, c), sparse.CPUFormats()); got != sparse.FormatCOO {
		t.Fatalf("hypersparse: best = %v, want COO", got)
	}
}

// Architecture dependence (Section 6): the same matrices must not all
// get identical labels on the two CPU platforms, otherwise transfer
// learning would be a no-op. The corpus mixture straddles the format
// boundaries, so a meaningful fraction must flip between machines.
func TestLabelsDifferAcrossPlatforms(t *testing.T) {
	xeon := NewLabeler(XeonLike(), 1)
	a8 := NewLabeler(A8Like(), 1)
	differ := 0
	total := 0
	for _, spec := range synthgen.SampleSpecs(150, 6, 2048) {
		st := sparse.ComputeStats(synthgen.Build(spec))
		l1, _ := xeon.Label(st, uint64(total))
		l2, _ := a8.Label(st, uint64(total))
		if l1 != l2 {
			differ++
		}
		total++
	}
	if differ < total/50 {
		t.Fatalf("labels differ on only %d/%d matrices across xeonlike/a8like", differ, total)
	}
	t.Logf("labels differ on %d/%d matrices across xeonlike/a8like", differ, total)
}

func tridiagBand(n, band int) *sparse.COO {
	var es []sparse.Entry
	for i := 0; i < n; i++ {
		for d := -band; d <= band; d++ {
			j := i + d
			if j >= 0 && j < n {
				es = append(es, sparse.Entry{Row: i, Col: j, Val: 1})
			}
		}
	}
	return sparse.MustCOO(n, n, es)
}

func TestLabelerDeterministic(t *testing.T) {
	l := NewLabeler(XeonLike(), 42)
	st := statsOf(t, tridiag(300))
	f1, t1 := l.Label(st, 7)
	f2, t2 := l.Label(st, 7)
	if f1 != f2 {
		t.Fatal("labels not deterministic")
	}
	for f, v := range t1 {
		if t2[f] != v {
			t.Fatal("times not deterministic")
		}
	}
}

func TestLabelerNoiseChangesWithID(t *testing.T) {
	l := NewLabeler(XeonLike(), 42)
	st := statsOf(t, tridiag(300))
	_, t1 := l.Times(st, 1), l.Times(st, 2)
	_, t2 := l.Times(st, 1), l.Times(st, 3)
	same := true
	for f := range t1 {
		if t1[f] != t2[f] {
			same = false
		}
	}
	if same {
		t.Fatal("noise identical across matrix ids")
	}
}

func TestLabelerNoNoise(t *testing.T) {
	l := NewLabeler(XeonLike(), 1)
	l.NoiseSigma = 0
	st := statsOf(t, tridiag(100))
	times := l.Times(st, 5)
	for f, v := range times {
		if want := l.Platform.EstimateSeconds(st, f); v != want {
			t.Fatalf("%v: noiseless time %v != model %v", f, v, want)
		}
	}
}

func TestEstimateEmptyMatrix(t *testing.T) {
	st := sparse.ComputeStats(sparse.MustCOO(10, 10, nil))
	for _, f := range sparse.AllFormats() {
		if sec := XeonLike().EstimateSeconds(st, f); sec <= 0 {
			t.Fatalf("%v: non-positive time for empty matrix", f)
		}
	}
}

func TestEstimatePositiveAndFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		c := randomScatter(rng, 1+rng.Intn(2000), rng.Intn(5000))
		st := sparse.ComputeStats(c)
		for _, p := range Platforms() {
			for _, f := range sparse.AllFormats() {
				sec := p.EstimateSeconds(st, f)
				if !(sec > 0) || sec > 10 {
					t.Fatalf("%s/%v: implausible time %v for %+v", p.Name, f, sec, st)
				}
			}
		}
	}
}

func TestPlatformPresets(t *testing.T) {
	ps := Platforms()
	if len(ps) != 3 {
		t.Fatalf("presets: %v", ps)
	}
	if ps["titanlike"].Kind != GPU || ps["xeonlike"].Kind != CPU {
		t.Fatal("platform kinds wrong")
	}
	if _, err := PlatformByName("xeonlike"); err != nil {
		t.Fatal(err)
	}
	if _, err := PlatformByName("zz"); err == nil {
		t.Fatal("unknown platform accepted")
	}
	if len(XeonLike().FormatSet()) != 4 || len(TitanLike().FormatSet()) != 6 {
		t.Fatal("format sets wrong")
	}
	if XeonLike().String() == "" || CPU.String() != "CPU" || GPU.String() != "GPU" {
		t.Fatal("String methods")
	}
}

func TestMeasureWallClock(t *testing.T) {
	c := tridiag(500)
	sec := Measure(sparse.NewCSR(c), 2, 3)
	if !(sec > 0) {
		t.Fatalf("measured %v", sec)
	}
	f, times, err := MeasureLabel(c, sparse.CPUFormats(), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 4 {
		t.Fatalf("times: %v", times)
	}
	if times[f] > times[sparse.FormatCSR] {
		t.Fatal("label is not the fastest format")
	}
}
