package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randF32(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// refConv is the convolution as im2col + a row-major matrix product
// adds it up: per output, the bias (0 when nil), then every tap in
// (c, kh, kw) order with a zero where the window hangs over the edge;
// each product rounded to T before the add.
func refConv[T float32 | float64](in, w, bias []T, g ConvGeom, outC int, relu bool) []T {
	oh, ow := g.OutH(), g.OutW()
	out := make([]T, outC*oh*ow)
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc T
				if bias != nil {
					acc = bias[oc]
				}
				wi := oc * g.InC * g.KH * g.KW
				for c := 0; c < g.InC; c++ {
					for kh := 0; kh < g.KH; kh++ {
						for kw := 0; kw < g.KW; kw++ {
							iy, ix := oy*g.StrideH+kh-g.PadH, ox*g.StrideW+kw-g.PadW
							var v T
							if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
								v = in[(c*g.InH+iy)*g.InW+ix]
							}
							acc += T(w[wi] * v)
							wi++
						}
					}
				}
				if relu {
					acc = max(acc, 0)
				}
				out[(oc*oh+oy)*ow+ox] = acc
			}
		}
	}
	return out
}

// TestConvF32MatchesReference requires Conv at float32 — the inference
// engine's instantiation — to equal the naive (bias, c, kh, kw) sum
// exactly, with a bias and without one (nil), over the geometries the
// blocking could get wrong: odd and non-square inputs, both strides,
// with and without a border, KH≠KW, 1×1 and 5×5 kernels, one and
// several input channels, and output-channel counts on both sides of
// the 3×3 path's block of 4. The float64 instantiation is pinned
// against the im2col path training ran before it, in internal/nn.
func TestConvF32MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	type shape struct{ inC, h, w, kh, kw, stride, pad, outC int }
	var cases []shape
	for _, outC := range []int{1, 3, 4, 5, 7, 8, 11} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1} {
				cases = append(cases,
					shape{1, 9, 7, 3, 3, stride, pad, outC},
					shape{3, 8, 13, 3, 3, stride, pad, outC},
				)
			}
		}
	}
	cases = append(cases,
		shape{1, 32, 32, 3, 3, 1, 1, 8},  // DefaultConfig block 1
		shape{8, 16, 16, 3, 3, 2, 1, 16}, // DefaultConfig block 2
		shape{2, 7, 9, 1, 1, 1, 0, 5},
		shape{2, 7, 9, 1, 1, 2, 0, 4},
		shape{1, 11, 10, 5, 5, 1, 2, 3},
		shape{3, 11, 10, 5, 5, 2, 2, 6},
		shape{2, 9, 12, 3, 2, 1, 1, 4},
		shape{2, 9, 12, 2, 3, 2, 0, 5},
		shape{1, 3, 3, 3, 3, 1, 0, 4}, // a single output position
	)
	for _, tc := range cases {
		for _, relu := range []bool{false, true} {
			for _, hasBias := range []bool{true, false} {
				g := ConvGeom{InC: tc.inC, InH: tc.h, InW: tc.w, KH: tc.kh, KW: tc.kw,
					StrideH: tc.stride, StrideW: tc.stride, PadH: tc.pad, PadW: tc.pad}
				if err := g.Validate(); err != nil {
					t.Fatal(err)
				}
				in := randF32(rng, tc.inC*tc.h*tc.w)
				w := randF32(rng, tc.outC*tc.inC*tc.kh*tc.kw)
				var bias []float32
				if hasBias {
					bias = randF32(rng, tc.outC)
				}
				want := refConv(in, w, bias, g, tc.outC, relu)

				padded := make([]float32, tc.inC*(tc.h+2*tc.pad)*(tc.w+2*tc.pad))
				for i := range padded {
					padded[i] = 99 // Pad must write the border, not assume it
				}
				Pad(padded, in, tc.inC, tc.h, tc.w, tc.pad, tc.pad)
				got := make([]float32, len(want))
				Conv(got, padded, w, bias, g, tc.outC, relu)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%+v relu=%v bias=%v: out[%d] = %v, reference %v", tc, relu, hasBias, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestConvKnownValues: one channel, a 3×3 input, a 2×2 kernel, stride
// 1, no border and no bias — each output is its window's weighted sum.
func TestConvKnownValues(t *testing.T) {
	in := []float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	g := ConvGeom{InC: 1, InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1}
	w := []float64{1, 10, 100, 1000}
	got := make([]float64, 4)
	Conv(got, in, w, nil, g, 1, false)
	want := []float64{
		1 + 20 + 400 + 5000, 2 + 30 + 500 + 6000,
		4 + 50 + 700 + 8000, 5 + 60 + 800 + 9000,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestMaxPoolF32MatchesReference covers windows and strides that leave
// odd trailing rows and columns unpooled.
func TestMaxPoolF32MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, tc := range []struct{ c, h, w, k, stride int }{
		{1, 4, 4, 2, 2}, {3, 5, 7, 2, 2}, {2, 9, 6, 3, 3}, {2, 8, 11, 3, 2}, {8, 32, 32, 2, 2}, {1, 2, 2, 2, 2}, {2, 7, 5, 2, 1},
	} {
		src := randF32(rng, tc.c*tc.h*tc.w)
		oh, ow := (tc.h-tc.k)/tc.stride+1, (tc.w-tc.k)/tc.stride+1
		got := make([]float32, tc.c*oh*ow)
		MaxPoolF32(got, src, tc.c, tc.h, tc.w, tc.k, tc.k, tc.stride, oh, ow)
		for ch := 0; ch < tc.c; ch++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					want := float32(math.Inf(-1))
					for dy := 0; dy < tc.k; dy++ {
						for dx := 0; dx < tc.k; dx++ {
							if v := src[(ch*tc.h+oy*tc.stride+dy)*tc.w+ox*tc.stride+dx]; v > want {
								want = v
							}
						}
					}
					if g := got[(ch*oh+oy)*ow+ox]; g != want {
						t.Fatalf("%+v: pooled[%d,%d,%d] = %v, want %v", tc, ch, oy, ox, g, want)
					}
				}
			}
		}
	}
}

// BenchmarkConvF32 times Conv at float32 on the two convolutions of
// selector.DefaultConfig — the geometry every shipped model runs.
func BenchmarkConvF32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ inC, hw, stride, outC int }{{1, 32, 1, 8}, {8, 16, 2, 16}} {
		g := ConvGeom{InC: tc.inC, InH: tc.hw, InW: tc.hw, KH: 3, KW: 3, StrideH: tc.stride, StrideW: tc.stride, PadH: 1, PadW: 1}
		in := randF32(rng, tc.inC*(tc.hw+2)*(tc.hw+2))
		w := randF32(rng, tc.outC*tc.inC*9)
		bias := randF32(rng, tc.outC)
		dst := make([]float32, tc.outC*g.OutH()*g.OutW())
		b.Run(fmt.Sprintf("%dx%dx%d_s%d_to_%d", tc.inC, tc.hw, tc.hw, tc.stride, tc.outC), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Conv(dst, in, w, bias, g, tc.outC, true)
			}
		})
	}
}
