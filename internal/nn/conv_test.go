package nn

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// im2colRef lowers a (C,H,W) input into the (C·KH·KW, OutH·OutW)
// matrix whose column p holds the receptive field of output p, with +0
// where the field reaches into the padding: the lowering Conv2D once
// trained on, kept here as the reference that fixes its summation
// orders.
func im2colRef(x []float64, g tensor.ConvGeom) []float64 {
	oh, ow := g.OutH(), g.OutW()
	cols := make([]float64, g.InC*g.KH*g.KW*oh*ow)
	k := 0
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*g.StrideH+kh-g.PadH, ox*g.StrideW+kw-g.PadW
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							cols[(k*oh+oy)*ow+ox] = x[(c*g.InH+iy)*g.InW+ix]
						}
					}
				}
				k++
			}
		}
	}
	return cols
}

// convRef is one sample through the im2col path, naive loops for its
// matrix products, in their summation orders (every product rounded
// before its add, as tensor.Conv rounds it, so that no target fuses
// one side and not the other):
//   - out[o][p] = Σₖ w[o][k]·cols[k][p] from 0, taps in order, zero
//     weights skipped; then the bias;
//   - wg[o][k] += Σₚ gout[o][p]·cols[k][p], summed from 0, positions in
//     order; bg[o] += Σₚ gout[o][p], likewise;
//   - dCols[k][p] = Σₒ w[o][k]·gout[o][p] from 0, output channels in
//     order, zero weights skipped; dIn is 0 plus each tap's row of dCols
//     in tap order (col2im).
func convRef(w, b, x, gout, wg, bg []float64, outC int, g tensor.ConvGeom) (out, dIn []float64) {
	cols := im2colRef(x, g)
	k, n := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	out = make([]float64, outC*n)
	for o := 0; o < outC; o++ {
		for p := 0; p < n; p++ {
			s := 0.0
			for i := 0; i < k; i++ {
				if w[o*k+i] != 0 {
					s += float64(w[o*k+i] * cols[i*n+p])
				}
			}
			out[o*n+p] = s + b[o]
		}
	}
	for o := 0; o < outC; o++ {
		for i := 0; i < k; i++ {
			s := 0.0
			for p := 0; p < n; p++ {
				s += float64(gout[o*n+p] * cols[i*n+p])
			}
			wg[o*k+i] += s
		}
		s := 0.0
		for p := 0; p < n; p++ {
			s += gout[o*n+p]
		}
		bg[o] += s
	}
	dCols := make([]float64, k*n)
	for i := 0; i < k; i++ {
		for p := 0; p < n; p++ {
			s := 0.0
			for o := 0; o < outC; o++ {
				if w[o*k+i] != 0 {
					s += float64(w[o*k+i] * gout[o*n+p])
				}
			}
			dCols[i*n+p] = s
		}
	}
	dIn = make([]float64, g.InC*g.InH*g.InW)
	oh, ow := g.OutH(), g.OutW()
	i := 0
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*g.StrideH+kh-g.PadH, ox*g.StrideW+kw-g.PadW
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							dIn[(c*g.InH+iy)*g.InW+ix] += dCols[(i*oh+oy)*ow+ox]
						}
					}
				}
				i++
			}
		}
	}
	return out, dIn
}

// convCase is one layer and sample for the differential checks: the
// geometry, the weights, bias and starting gradients, the input and
// the output gradient.
type convCase struct {
	g                        tensor.ConvGeom
	outC                     int
	w, b, wg, bg, x, gradOut []float64
}

// diffConv runs c through Conv2D — a train-mode Forward, then Backward
// onto gradients that start at c.wg and c.bg — and through convRef. It
// returns "" when the output, W.Grad, B.Grad and dIn match bit for bit
// (any two NaNs match, as in sameBits), and what differs otherwise. An
// output may also differ where the reference holds no NaN and Conv2D
// does if the input holds a NaN or ±Inf and a weight is exactly 0: the
// direct forward multiplies that weight, the im2col path skipped it.
func diffConv(c convCase) string {
	g := c.g
	l := &Conv2D{
		InC: g.InC, OutC: c.outC, KH: g.KH, KW: g.KW,
		StrideH: g.StrideH, StrideW: g.StrideW, PadH: g.PadH, PadW: g.PadW,
		W: newParam("w", tensor.FromSlice(append([]float64(nil), c.w...), c.outC, g.InC*g.KH*g.KW)),
		B: newParam("b", tensor.FromSlice(append([]float64(nil), c.b...), c.outC)),
	}
	copy(l.W.Grad.Data(), c.wg)
	copy(l.B.Grad.Data(), c.bg)
	x := tensor.FromSlice(append([]float64(nil), c.x...), g.InC, g.InH, g.InW)
	out := l.Forward(x, true)
	dIn := l.Backward(tensor.FromSlice(append([]float64(nil), c.gradOut...), out.Shape()...))
	wg, bg := append([]float64(nil), c.wg...), append([]float64(nil), c.bg...)
	wantOut, wantDIn := convRef(c.w, c.b, c.x, c.gradOut, wg, bg, c.outC, g)
	zeroW := false
	for _, v := range c.w {
		zeroW = zeroW || v == 0
	}
	nonFiniteX := false
	for _, v := range c.x {
		nonFiniteX = nonFiniteX || math.IsNaN(v) || math.IsInf(v, 0)
	}
	for i, v := range out.Data() {
		if sameBits([]float64{v}, wantOut[i:i+1]) || zeroW && nonFiniteX && math.IsNaN(v) {
			continue
		}
		return fmt.Sprintf("output %d: %v, reference %v", i, v, wantOut[i])
	}
	switch {
	case !sameBits(l.W.Grad.Data(), wg):
		return fmt.Sprintf("W.Grad %v, reference %v", l.W.Grad.Data(), wg)
	case !sameBits(l.B.Grad.Data(), bg):
		return fmt.Sprintf("B.Grad %v, reference %v", l.B.Grad.Data(), bg)
	case !sameBits(dIn.Data(), wantDIn):
		return fmt.Sprintf("dIn %v, reference %v", dIn.Data(), wantDIn)
	}
	return ""
}

// TestConv2DMatchesIm2Col: Conv2D's forward and backward are the im2col
// path's bit for bit — output, W.Grad, B.Grad and dIn — over 1×1, 2×2,
// 3×3 and 5×3 kernels, strides 1 and 2, pads 0 to 2, one-row and
// one-column inputs, output channel counts on both sides of a multiple
// of four, and values that include ±0, subnormals and 1e±300, whose
// products underflow and overflow.
func TestConv2DMatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	kernels := [][2]int{{1, 1}, {2, 2}, {3, 3}, {5, 3}}
	strides := [][2]int{{1, 1}, {2, 2}, {1, 2}, {2, 1}}
	inputs := [][3]int{{1, 1, 7}, {1, 6, 1}, {2, 5, 7}, {3, 8, 8}}
	cases := 0
	for _, k := range kernels {
		for _, s := range strides {
			for pad := 0; pad <= 2; pad++ {
				for _, in := range inputs {
					for _, outC := range []int{1, 4, 5, 8} {
						g := tensor.ConvGeom{InC: in[0], InH: in[1], InW: in[2], KH: k[0], KW: k[1],
							StrideH: s[0], StrideW: s[1], PadH: pad, PadW: min(pad, 1)}
						if g.Validate() != nil {
							continue
						}
						kk, n := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
						c := convCase{g: g, outC: outC,
							w: awkwardSlice(rng, outC*kk), b: awkwardSlice(rng, outC),
							wg: awkwardSlice(rng, outC*kk), bg: awkwardSlice(rng, outC),
							x: awkwardSlice(rng, g.InC*g.InH*g.InW), gradOut: awkwardSlice(rng, outC*n)}
						if d := diffConv(c); d != "" {
							t.Fatalf("%+v, outC=%d: %s", g, outC, d)
						}
						cases++
					}
				}
			}
		}
	}
	if cases < 200 {
		t.Fatalf("only %d valid geometries", cases)
	}
}

// FuzzConv2D checks Conv2D's forward and backward against the im2col
// reference on arbitrary geometries and float64 bit patterns, NaNs and
// Infs included (see diffConv for the one case whose forward bits may
// differ).
func FuzzConv2D(f *testing.F) {
	f.Add([]byte{3, 3, 1, 1, 1, 1, 1, 8, 8, 4}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{5, 3, 2, 1, 2, 0, 2, 1, 9, 5}, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add([]byte{1, 1, 1, 2, 0, 0, 1, 6, 1, 1}, []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, shape, data []byte) {
		dim := func(i, mod, lo int) int {
			if i >= len(shape) {
				return lo
			}
			return int(shape[i])%mod + lo
		}
		g := tensor.ConvGeom{KH: dim(0, 5, 1), KW: dim(1, 5, 1), StrideH: dim(2, 3, 1), StrideW: dim(3, 3, 1),
			PadH: dim(4, 3, 0), PadW: dim(5, 3, 0), InC: dim(6, 3, 1), InH: dim(7, 10, 1), InW: dim(8, 10, 1)}
		outC := dim(9, 9, 1)
		if g.Validate() != nil {
			return
		}
		next := func() float64 {
			if len(data) < 8 {
				return float64(len(data)) - 3.5
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			data = data[8:]
			return v
		}
		fill := func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = next()
			}
			return s
		}
		kk, n := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
		c := convCase{g: g, outC: outC, x: fill(g.InC * g.InH * g.InW), w: fill(outC * kk), b: fill(outC),
			gradOut: fill(outC * n), wg: fill(outC * kk), bg: fill(outC)}
		if d := diffConv(c); d != "" {
			t.Fatalf("%+v, outC=%d: %s", g, outC, d)
		}
	})
}

// TestConv2DAdjointProperty: without its bias Conv2D is linear in its
// input, and Backward is its adjoint — <Forward(x), y> = <x,
// Backward(y)> — which is exactly what back-propagation requires.
func TestConv2DAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewConv2D(1+rng.Intn(3), 1+rng.Intn(5), 1+rng.Intn(3), 1+rng.Intn(3),
			1+rng.Intn(2), 1+rng.Intn(2), rng.Intn(2), rng.Intn(2), rng)
		x := randInput(rng, l.InC, 4+rng.Intn(6), 4+rng.Intn(6))
		if l.geom(x.Shape()).Validate() != nil {
			return true
		}
		out := l.Forward(x, true)
		y := randInput(rng, out.Shape()...)
		dx := l.Backward(y)
		lhs, rhs := 0.0, 0.0
		for i, v := range out.Data() {
			lhs += v * y.Data()[i]
		}
		for i, v := range x.Data() {
			rhs += v * dx.Data()[i]
		}
		return math.Abs(lhs-rhs) < 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestNonFiniteInputTripsDivergenceGate: a NaN or ±Inf in a tower's
// input, on one or two workers, returns ErrNonFinite and leaves the
// weights as they were — also when a conv weight is exactly 0, the one
// case in which the direct forward (which multiplies that weight: 0·Inf
// is NaN) and the im2col path (which skipped it) differ in bits.
func TestNonFiniteInputTripsDivergenceGate(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, workers := range []int{1, 2} {
			for _, zeroWeight := range []bool{false, true} {
				rng := rand.New(rand.NewSource(22))
				m := toyModel(rng)
				if zeroWeight {
					m.Towers[0][0].(*Conv2D).W.Value.Data()[4] = 0
				}
				samples := makeToyProblem(rng, 8)
				samples[5].Inputs[0].Data()[14] = bad
				before := modelWeights(m)
				tr := NewTrainer(m, NewAdam(0.01), len(samples), 1)
				tr.Workers = workers
				if _, err := tr.TrainEpochCtx(context.Background(), samples); !errors.Is(err, ErrNonFinite) {
					t.Fatalf("input %v, workers=%d, zero weight %v: err = %v, want ErrNonFinite", bad, workers, zeroWeight, err)
				}
				weightsEqual(t, before, modelWeights(m), "after the refused step")
			}
		}
	}
}

// BenchmarkConv2D is one sample through each convolution of
// selector.DefaultConfig's tower: the train-mode forward, then the
// backward (dW, dB and dInput).
func BenchmarkConv2D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ inC, hw, stride, outC int }{{1, 32, 1, 8}, {8, 16, 2, 16}} {
		l := NewConv2D(tc.inC, tc.outC, 3, 3, tc.stride, tc.stride, 1, 1, rng)
		x := randInput(rng, tc.inC, tc.hw, tc.hw)
		gradOut := randInput(rng, l.Forward(x, true).Shape()...)
		name := fmt.Sprintf("%dx%dx%d_s%d_to_%d", tc.inC, tc.hw, tc.hw, tc.stride, tc.outC)
		b.Run("forward/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Forward(x, true)
			}
		})
		b.Run("backward/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.Backward(gradOut)
			}
		})
	}
}
