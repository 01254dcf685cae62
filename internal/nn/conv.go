package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution over (C,H,W) inputs: tensor.Conv, the
// direct kernel the float32 inference engine runs, at float64. Weights
// have shape (OutC, InC·KH·KW); bias has shape (OutC). Every sum keeps
// the order of the im2col matrix products training once ran, so models
// train to the same bits — except where a NaN or ±Inf input meets a
// weight of exactly 0, which Conv multiplies (0·Inf is NaN) and the
// matrix product skipped; either way the divergence gate trips.
type Conv2D struct {
	InC, OutC  int
	KH, KW     int
	StrideH    int
	StrideW    int
	PadH, PadW int
	W, B       *Param
	// Train-mode state: the geometry of the last Forward(train) and the
	// input it read, zero border included.
	lastGeom tensor.ConvGeom
	lastIn   []float64
}

// NewConv2D builds a convolution layer with He-initialised weights.
func NewConv2D(inC, outC, kh, kw, strideH, strideW, padH, padW int, rng *rand.Rand) *Conv2D {
	w := tensor.New(outC, inC*kh*kw)
	heInit(w, inC*kh*kw, rng)
	b := tensor.New(outC)
	return &Conv2D{
		InC: inC, OutC: outC, KH: kh, KW: kw,
		StrideH: strideH, StrideW: strideW, PadH: padH, PadW: padW,
		W: newParam("conv.w", w), B: newParam("conv.b", b),
	}
}

// Name describes the layer.
func (l *Conv2D) Name() string {
	return fmt.Sprintf("Conv2D(%dx%dx%d,stride %dx%d,pad %dx%d)",
		l.KH, l.KW, l.OutC, l.StrideH, l.StrideW, l.PadH, l.PadW)
}

func (l *Conv2D) geom(in []int) tensor.ConvGeom {
	return tensor.ConvGeom{
		InC: in[0], InH: in[1], InW: in[2],
		KH: l.KH, KW: l.KW,
		StrideH: l.StrideH, StrideW: l.StrideW,
		PadH: l.PadH, PadW: l.PadW,
	}
}

// OutShape computes (OutC, OutH, OutW) for an input shape.
func (l *Conv2D) OutShape(in []int) []int {
	g := l.geom(in)
	return []int{l.OutC, g.OutH(), g.OutW()}
}

// Forward pads the input into a buffer of its own (so inference writes
// no layer state), runs tensor.Conv without a bias and adds the bias to
// each finished sum: last, as the im2col path did, which keeps the bits
// of training; the float32 engine has Conv add it first, the order its
// golden probabilities were recorded in.
func (l *Conv2D) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	if in.Rank() != 3 || in.Dim(0) != l.InC {
		panic(fmt.Sprintf("nn: %s got input shape %s, want %d channels",
			l.Name(), shapeString(in.Shape()), l.InC))
	}
	g := l.geom(in.Shape())
	if err := g.Validate(); err != nil {
		panic(err)
	}
	x := make([]float64, g.InC*(g.InH+2*g.PadH)*(g.InW+2*g.PadW))
	tensor.Pad(x, in.Data(), g.InC, g.InH, g.InW, g.PadH, g.PadW)
	out := tensor.New(l.OutC, g.OutH(), g.OutW())
	od, n := out.Data(), g.OutH()*g.OutW()
	tensor.Conv(od, x, l.W.Value.Data(), nil, g, l.OutC, false)
	for c, b := range l.B.Value.Data() {
		row := od[c*n : (c+1)*n]
		for i := range row {
			row[i] += b
		}
	}
	if train {
		l.lastGeom, l.lastIn = g, x
	}
	return out
}

// Backward accumulates dW and dB and returns dInput, in the order of
// the im2col path's matrix products (weightGrad, inputGrad).
func (l *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if l.lastIn == nil {
		panic("nn: Conv2D.Backward without Forward(train)")
	}
	g := l.lastGeom
	n := g.OutH() * g.OutW()
	gd := gradOut.Data()
	weightGrad(l.W.Grad.Data(), gd, l.lastIn, g, l.OutC)
	bg := l.B.Grad.Data()
	for c := range bg {
		s := 0.0
		for _, v := range gd[c*n : (c+1)*n] {
			s += v
		}
		bg[c] += s
	}
	dIn := tensor.New(g.InC, g.InH, g.InW)
	inputGrad(dIn.Data(), gd, l.W.Value.Data(), g, l.OutC)
	return dIn
}

// weightGrad adds dW[o][c,kh,kw] = Σ g[o][oy,ox]·x[c][oy·StrideH+kh][ox·StrideW+kw]
// to wg, x being the padded input: per weight one sum from 0 over the
// output positions in order, each product rounded before the add (no
// target fuses it). A 3-wide kernel takes two channels and a kernel row
// per pass, six sums in flight sharing each input load; other kernels,
// and a channel left over, take one sum at a time.
func weightGrad(wg, gd, x []float64, g tensor.ConvGeom, outC int) {
	oh, ow := g.OutH(), g.OutW()
	ih, iw := g.InH+2*g.PadH, g.InW+2*g.PadW
	k, n := g.InC*g.KH*g.KW, oh*ow
	o := 0
	for ; g.KW == 3 && o+2 <= outC; o += 2 {
		g0, g1 := gd[o*n:(o+1)*n], gd[(o+1)*n:(o+2)*n]
		for i := 0; i < k; i += 3 {
			var a0, a1, a2, b0, b1, b2 float64
			row := (i/(3*g.KH)*ih + i/3%g.KH) * iw
			for oy := 0; oy < oh; oy++ {
				at := row + oy*g.StrideH*iw
				h1 := g1[oy*ow : (oy+1)*ow]
				for ox, u := range g0[oy*ow : (oy+1)*ow] {
					v, r := h1[ox], x[at:at+3:at+3]
					a0, a1, a2 = a0+float64(u*r[0]), a1+float64(u*r[1]), a2+float64(u*r[2])
					b0, b1, b2 = b0+float64(v*r[0]), b1+float64(v*r[1]), b2+float64(v*r[2])
					at += g.StrideW
				}
			}
			t0, t1 := wg[o*k+i:][:3], wg[(o+1)*k+i:][:3]
			t0[0], t0[1], t0[2] = t0[0]+a0, t0[1]+a1, t0[2]+a2
			t1[0], t1[1], t1[2] = t1[0]+b0, t1[1]+b1, t1[2]+b2
		}
	}
	for ; o < outC; o++ {
		for i := 0; i < k; i++ {
			s := 0.0
			tap := (i/(g.KH*g.KW)*ih+i/g.KW%g.KH)*iw + i%g.KW
			for oy := 0; oy < oh; oy++ {
				at := tap + oy*g.StrideH*iw
				for _, u := range gd[o*n+oy*ow : o*n+(oy+1)*ow] {
					s += float64(u * x[at])
					at += g.StrideW
				}
			}
			wg[o*k+i] += s
		}
	}
}

// inputGrad adds col2im(Wᵀ·g) to dIn: per tap (c, kh, kw) in order, the
// column gradient — per output position, Σ over channels in order from
// 0, zero weights skipped — lands on the pixel each position read
// through the tap, so a pixel gets its taps in order. Four channels
// with nonzero weights share a pass over the column; others take one.
func inputGrad(dIn, gd, w []float64, g tensor.ConvGeom, outC int) {
	oh, ow := g.OutH(), g.OutW()
	k, n := g.InC*g.KH*g.KW, oh*ow
	col := make([]float64, n)
	for t := 0; t < k; t++ {
		clear(col)
		for o := 0; o < outC; {
			if o+4 <= outC && w[o*k+t] != 0 && w[(o+1)*k+t] != 0 && w[(o+2)*k+t] != 0 && w[(o+3)*k+t] != 0 {
				w0, w1, w2, w3 := w[o*k+t], w[(o+1)*k+t], w[(o+2)*k+t], w[(o+3)*k+t]
				h := gd[o*n : (o+4)*n]
				h0, h1, h2, h3 := h[:n:n], h[n:2*n:2*n], h[2*n:3*n:3*n], h[3*n:]
				for p, v := range col[:n] {
					col[p] = v + float64(w0*h0[p]) + float64(w1*h1[p]) + float64(w2*h2[p]) + float64(w3*h3[p])
				}
				o += 4
				continue
			}
			if wv := w[o*k+t]; wv != 0 {
				for p, v := range gd[o*n : (o+1)*n] {
					col[p] += float64(wv * v)
				}
			}
			o++
		}
		c, kh, kw := t/(g.KH*g.KW), t/g.KW%g.KH, t%g.KW
		y0, y1 := inside(oh, g.StrideH, kh-g.PadH, g.InH)
		x0, x1 := inside(ow, g.StrideW, kw-g.PadW, g.InW)
		for oy := y0; oy < y1; oy++ {
			row := dIn[(c*g.InH+oy*g.StrideH+kh-g.PadH)*g.InW:]
			for ox := x0; ox < x1; ox++ {
				row[ox*g.StrideW+kw-g.PadW] += col[oy*ow+ox]
			}
		}
	}
}

// inside returns the output positions [lo, hi) along one axis whose
// input coordinate o·stride+off lies in [0, in).
func inside(out, stride, off, in int) (lo, hi int) {
	for lo < out && lo*stride+off < 0 {
		lo++
	}
	hi = out
	for hi > lo && (hi-1)*stride+off >= in {
		hi--
	}
	return lo, hi
}

// Params returns the weight and bias.
func (l *Conv2D) Params() []*Param { return []*Param{l.W, l.B} }

// Replica shares parameter values with private gradients and state.
func (l *Conv2D) Replica() Layer {
	c := *l
	c.W = l.W.replica()
	c.B = l.B.replica()
	c.lastIn = nil
	return &c
}

// MaxPool2D is max pooling over (C,H,W) inputs with a square window.
// Odd trailing rows/columns are dropped (floor semantics), matching
// common CNN frameworks.
type MaxPool2D struct {
	K, Stride int
	lastIn    []int
	lastArg   []int // flat input index of each output's max
}

// NewMaxPool2D builds a pooling layer (window k, stride defaults to k).
func NewMaxPool2D(k, stride int) *MaxPool2D {
	if stride <= 0 {
		stride = k
	}
	return &MaxPool2D{K: k, Stride: stride}
}

// Name describes the layer.
func (l *MaxPool2D) Name() string { return fmt.Sprintf("MaxPool2D(%d,stride %d)", l.K, l.Stride) }

// OutShape computes the pooled shape.
func (l *MaxPool2D) OutShape(in []int) []int {
	oh := (in[1]-l.K)/l.Stride + 1
	ow := (in[2]-l.K)/l.Stride + 1
	if oh < 1 {
		oh = 1
	}
	if ow < 1 {
		ow = 1
	}
	return []int{in[0], oh, ow}
}

// Forward computes channel-wise window maxima.
func (l *MaxPool2D) Forward(in *tensor.Tensor, train bool) *tensor.Tensor {
	c, h, w := in.Dim(0), in.Dim(1), in.Dim(2)
	os := l.OutShape(in.Shape())
	oh, ow := os[1], os[2]
	out := tensor.New(c, oh, ow)
	var arg []int
	if train {
		arg = make([]int, c*oh*ow)
	}
	id := in.Data()
	od := out.Data()
	for ch := 0; ch < c; ch++ {
		chOff := ch * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				y0, x0 := oy*l.Stride, ox*l.Stride
				best := -1
				bestV := 0.0
				for dy := 0; dy < l.K && y0+dy < h; dy++ {
					rowOff := chOff + (y0+dy)*w
					for dx := 0; dx < l.K && x0+dx < w; dx++ {
						idx := rowOff + x0 + dx
						if best < 0 || id[idx] > bestV {
							best, bestV = idx, id[idx]
						}
					}
				}
				oi := ch*oh*ow + oy*ow + ox
				od[oi] = bestV
				if train {
					arg[oi] = best
				}
			}
		}
	}
	if train {
		l.lastIn = in.Shape()
		l.lastArg = arg
	}
	return out
}

// Backward routes gradients to the argmax positions.
func (l *MaxPool2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if l.lastArg == nil {
		panic("nn: MaxPool2D.Backward without Forward(train)")
	}
	grad := tensor.New(l.lastIn...)
	gd := grad.Data()
	god := gradOut.Data()
	for oi, idx := range l.lastArg {
		if idx >= 0 {
			gd[idx] += god[oi]
		}
	}
	return grad
}

// Params returns nil (stateless).
func (l *MaxPool2D) Params() []*Param { return nil }

// Replica returns a fresh pooling layer (no shared state).
func (l *MaxPool2D) Replica() Layer { return NewMaxPool2D(l.K, l.Stride) }
