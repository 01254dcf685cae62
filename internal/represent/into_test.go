package represent

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
	"repro/internal/synthgen"
)

// refBinaryDensity and refHistNorm are the two-pass, 64-bit,
// float64-only implementations Into replaced, kept as the reference it
// must reproduce bit for bit.
func refBinaryDensity(m *sparse.COO, size int) (binary, density []float64) {
	rows, cols := m.Dims()
	binary = make([]float64, size*size)
	density = make([]float64, size*size)
	counts := make([]float64, size*size)
	for k := range m.Vals {
		br := int(int64(m.Rows[k]) * int64(size) / int64(rows))
		bc := int(int64(m.Cols[k]) * int64(size) / int64(cols))
		counts[br*size+bc]++
	}
	for i := 0; i < size; i++ {
		r0 := int(int64(i) * int64(rows) / int64(size))
		r1 := int(int64(i+1) * int64(rows) / int64(size))
		if r1 == r0 {
			r1 = r0 + 1
		}
		for j := 0; j < size; j++ {
			c0 := int(int64(j) * int64(cols) / int64(size))
			c1 := int(int64(j+1) * int64(cols) / int64(size))
			if c1 == c0 {
				c1 = c0 + 1
			}
			if cnt := counts[i*size+j]; cnt > 0 {
				binary[i*size+j] = 1
				d := cnt / float64((r1-r0)*(c1-c0))
				if d > 1 {
					d = 1
				}
				density[i*size+j] = d
			}
		}
	}
	return binary, density
}

func refHistNorm(m *sparse.COO, r, bins int, byColumn bool) []float64 {
	rows, cols := m.Dims()
	data := make([]float64, r*bins)
	primary := rows
	if byColumn {
		primary = cols
	}
	maxDim := rows
	if cols > maxDim {
		maxDim = cols
	}
	for k := range m.Vals {
		p := int(m.Rows[k])
		if byColumn {
			p = int(m.Cols[k])
		}
		hr := int(int64(p) * int64(r) / int64(primary))
		dist := int(m.Rows[k]) - int(m.Cols[k])
		if dist < 0 {
			dist = -dist
		}
		bin := int(int64(bins) * int64(dist) / int64(maxDim))
		if bin >= bins {
			bin = bins - 1
		}
		data[hr*bins+bin]++
	}
	max := 0.0
	for _, v := range data {
		if v > max {
			max = v
		}
	}
	if max > 0 {
		for i := range data {
			data[i] /= max
		}
	}
	return data
}

func refNormalize(m *sparse.COO, cfg Config) []float64 {
	switch cfg.Kind {
	case KindBinary:
		b, _ := refBinaryDensity(m, cfg.Size)
		return b
	case KindBinaryDensity:
		b, d := refBinaryDensity(m, cfg.Size)
		return append(b, d...)
	default:
		return append(refHistNorm(m, cfg.Size, cfg.Bins, false), refHistNorm(m, cfg.Size, cfg.Bins, true)...)
	}
}

// scattered builds a rows×cols matrix of nnz seeded random entries.
func scattered(rows, cols, nnz int, seed int64) *sparse.COO {
	rng := rand.New(rand.NewSource(seed))
	es := make([]sparse.Entry, nnz)
	for i := range es {
		es[i] = sparse.Entry{Row: rng.Intn(rows), Col: rng.Intn(cols), Val: 1}
	}
	return sparse.MustCOO(rows, cols, es)
}

// TestIntoMatchesReference is the precision contract of the one
// implementation per kind: the float64 instantiation (training,
// Normalize) equals the old two-pass code bit for bit, and the float32
// instantiation (inference) equals float32 of it element for element —
// over the synthgen mixture and over the shapes the slot arithmetic
// treats specially: fewer rows than the grid, a single row or column,
// rectangular, and dimensions past 2^31/size that force 64-bit divides.
func TestIntoMatchesReference(t *testing.T) {
	type namedMatrix struct {
		name string
		m    *sparse.COO
	}
	var ms []namedMatrix
	for i, spec := range synthgen.SampleSpecs(60, 99, 512) {
		ms = append(ms, namedMatrix{fmt.Sprintf("spec %d (%v)", i, spec.Family), synthgen.Build(spec)})
	}
	ms = append(ms,
		namedMatrix{"rows < size", scattered(7, 7, 20, 1)},
		namedMatrix{"1xN", scattered(1, 500, 90, 2)},
		namedMatrix{"Nx1", scattered(500, 1, 90, 3)},
		namedMatrix{"wide", scattered(40, 3000, 800, 4)},
		namedMatrix{"tall", scattered(3000, 40, 800, 5)},
		namedMatrix{"64-bit rows", scattered(1<<27, 3000, 500, 6)},
		namedMatrix{"64-bit cols", scattered(3000, 1<<27, 500, 7)},
		namedMatrix{"just under 2^31/size", scattered(math.MaxInt32/32-1, 64, 500, 8)},
		namedMatrix{"just over 2^31/size", scattered(math.MaxInt32/32+1, 64, 500, 9)},
	)
	for _, kind := range Kinds() {
		for _, cfg := range []Config{{Kind: kind, Size: 32, Bins: 16}, {Kind: kind, Size: 20, Bins: 7}} {
			f64 := make([]float64, cfg.Len())
			f32 := make([]float32, cfg.Len())
			for _, nm := range ms {
				want := refNormalize(nm.m, cfg)
				// Dirty destinations: Into must overwrite, not accumulate.
				for i := range f64 {
					f64[i], f32[i] = -3, -3
				}
				if err := Into(f64, &nm.m.Pattern, cfg); err != nil {
					t.Fatal(err)
				}
				if err := Into(f32, &nm.m.Pattern, cfg); err != nil {
					t.Fatal(err)
				}
				for i, w := range want {
					if math.Float64bits(f64[i]) != math.Float64bits(w) {
						t.Fatalf("%v %dx%d, %s: float64[%d] = %v, reference %v", kind, cfg.Size, cfg.Bins, nm.name, i, f64[i], w)
					}
					if math.Float32bits(f32[i]) != math.Float32bits(float32(w)) {
						t.Fatalf("%v %dx%d, %s: float32[%d] = %v, want float32(%v)", kind, cfg.Size, cfg.Bins, nm.name, i, f32[i], w)
					}
				}
				chans, err := Normalize(nm.m, cfg)
				if err != nil {
					t.Fatal(err)
				}
				hw := len(want) / len(chans)
				for c, ch := range chans {
					for i, v := range ch.Data() {
						if math.Float64bits(v) != math.Float64bits(want[c*hw+i]) {
							t.Fatalf("%v, %s: Normalize channel %d [%d] = %v, reference %v", kind, nm.name, c, i, v, want[c*hw+i])
						}
					}
				}
			}
		}
	}
}

func TestIntoRejectsWrongLength(t *testing.T) {
	cfg := Config{Kind: KindHistogram, Size: 8, Bins: 4}
	if err := Into(make([]float32, cfg.Len()-1), &scattered(9, 9, 5, 1).Pattern, cfg); err == nil {
		t.Fatal("short destination accepted")
	}
}

// TestIntoZeroAllocs pins the in-place contract for both precisions.
func TestIntoZeroAllocs(t *testing.T) {
	m := synthgen.Random(400, 400, 3000, 1)
	for _, kind := range Kinds() {
		cfg := Config{Kind: kind, Size: 32, Bins: 16}
		f32 := make([]float32, cfg.Len())
		f64 := make([]float64, cfg.Len())
		if n := testing.AllocsPerRun(20, func() {
			_ = Into(f32, &m.Pattern, cfg)
			_ = Into(f64, &m.Pattern, cfg)
		}); n != 0 {
			t.Fatalf("%v: Into allocates %.0f objects per call, want 0", kind, n)
		}
	}
}
