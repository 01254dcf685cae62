package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling
// operation over a (channels, height, width) input.
type ConvGeom struct {
	InC, InH, InW int // input channels, height, width
	KH, KW        int // kernel height, width
	StrideH       int
	StrideW       int
	PadH          int // symmetric zero padding, rows
	PadW          int // symmetric zero padding, cols
}

// OutH returns the output height of the convolution.
func (g ConvGeom) OutH() int { return (g.InH+2*g.PadH-g.KH)/g.StrideH + 1 }

// OutW returns the output width of the convolution.
func (g ConvGeom) OutW() int { return (g.InW+2*g.PadW-g.KW)/g.StrideW + 1 }

// Validate reports whether the geometry is internally consistent.
func (g ConvGeom) Validate() error {
	switch {
	case g.InC <= 0 || g.InH <= 0 || g.InW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive input dims %+v", g)
	case g.KH <= 0 || g.KW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive kernel %+v", g)
	case g.StrideH <= 0 || g.StrideW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive stride %+v", g)
	case g.PadH < 0 || g.PadW < 0:
		return fmt.Errorf("tensor: conv geometry has negative padding %+v", g)
	case g.InH+2*g.PadH < g.KH || g.InW+2*g.PadW < g.KW:
		return fmt.Errorf("tensor: kernel larger than padded input %+v", g)
	}
	return nil
}

// Pad copies a (c,h,w) input into dst as (c, h+2·padH, w+2·padW) with a
// zero border, the input layout Conv reads.
func Pad[T float32 | float64](dst, src []T, c, h, w, padH, padW int) {
	pw := w + 2*padW
	dst = dst[:c*(h+2*padH)*pw]
	clear(dst)
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			at := (ch*(h+2*padH)+y+padH)*pw + padW
			copy(dst[at:at+w], src[(ch*h+y)*w:])
		}
	}
}

// Conv computes a direct convolution with the bias add and an optional
// ReLU fused in, into caller-provided storage: dst is (outC, OutH,
// OutW), w is (outC, InC·KH·KW), bias is (outC) or nil for none, and
// in is the input with its zero border in place, as Pad lays it out.
// Inference runs it at float32, training at float64.
//
// Rounding is part of the contract. Each output is one sum formed in a
// fixed order — the bias first (0 when nil), then input channel,
// kernel row, kernel column, the order a row-major im2col matrix
// product adds them in — and every product, zero weights included, is
// rounded to T before it is added (the conversion forbids a fused
// multiply-add), so the result depends neither on the target
// architecture nor on how outputs are blocked.
//
// 3×3 kernels — every tower the selector builds — take four output
// channels at a time with the taps unrolled (conv3x3x4); any other
// shape, and the channels left over, take the one-output loop below.
func Conv[T float32 | float64](dst, in, w, bias []T, g ConvGeom, outC int, relu bool) {
	oh, ow := g.OutH(), g.OutW()
	ih, iw := g.InH+2*g.PadH, g.InW+2*g.PadW
	k := g.InC * g.KH * g.KW
	oc := 0
	if g.KH == 3 && g.KW == 3 {
		for ; oc+4 <= outC; oc += 4 {
			conv3x3x4(dst, in, w, bias, g, oc, relu)
		}
	}
	for ; oc < outC; oc++ {
		var b T
		if bias != nil {
			b = bias[oc]
		}
		wk := w[oc*k : (oc+1)*k]
		out := dst[oc*oh*ow : (oc+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				acc := b
				wi := 0
				for c := 0; c < g.InC; c++ {
					at := (c*ih+oy*g.StrideH)*iw + ox*g.StrideW
					for kh := 0; kh < g.KH; kh++ {
						x := in[at : at+g.KW]
						for kw, wv := range wk[wi : wi+g.KW] {
							acc += T(wv * x[kw])
						}
						wi += g.KW
						at += iw
					}
				}
				if relu {
					acc = max(acc, 0)
				}
				out[oy*ow+ox] = acc
			}
		}
	}
}

// conv3x3x4 computes output channels oc..oc+3 of a 3×3 convolution.
// The four sums are independent, so four channels' worth of
// multiply-adds are in flight per input window while each sum keeps
// its own order; the nine input values are loaded once for all four.
func conv3x3x4[T float32 | float64](dst, in, w, bias []T, g ConvGeom, oc int, relu bool) {
	oh, ow := g.OutH(), g.OutW()
	ih, iw := g.InH+2*g.PadH, g.InW+2*g.PadW
	k := g.InC * 9
	n := oh * ow
	w0, w1, w2, w3 := w[oc*k:(oc+1)*k], w[(oc+1)*k:(oc+2)*k], w[(oc+2)*k:(oc+3)*k], w[(oc+3)*k:(oc+4)*k]
	var b0, b1, b2, b3 T
	if bias != nil {
		b0, b1, b2, b3 = bias[oc], bias[oc+1], bias[oc+2], bias[oc+3]
	}
	d0, d1, d2, d3 := dst[oc*n:(oc+1)*n], dst[(oc+1)*n:(oc+2)*n], dst[(oc+2)*n:(oc+3)*n], dst[(oc+3)*n:(oc+4)*n]
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			a0, a1, a2, a3 := b0, b1, b2, b3
			at := oy*g.StrideH*iw + ox*g.StrideW
			for c := 0; c < g.InC; c++ {
				u0, u1, u2, u3 := w0[c*9:c*9+9:c*9+9], w1[c*9:c*9+9:c*9+9], w2[c*9:c*9+9:c*9+9], w3[c*9:c*9+9:c*9+9]
				r0, r1, r2 := in[at:at+3:at+3], in[at+iw:at+iw+3:at+iw+3], in[at+2*iw:at+2*iw+3:at+2*iw+3]
				a0, a1, a2, a3 = a0+T(u0[0]*r0[0]), a1+T(u1[0]*r0[0]), a2+T(u2[0]*r0[0]), a3+T(u3[0]*r0[0])
				a0, a1, a2, a3 = a0+T(u0[1]*r0[1]), a1+T(u1[1]*r0[1]), a2+T(u2[1]*r0[1]), a3+T(u3[1]*r0[1])
				a0, a1, a2, a3 = a0+T(u0[2]*r0[2]), a1+T(u1[2]*r0[2]), a2+T(u2[2]*r0[2]), a3+T(u3[2]*r0[2])
				a0, a1, a2, a3 = a0+T(u0[3]*r1[0]), a1+T(u1[3]*r1[0]), a2+T(u2[3]*r1[0]), a3+T(u3[3]*r1[0])
				a0, a1, a2, a3 = a0+T(u0[4]*r1[1]), a1+T(u1[4]*r1[1]), a2+T(u2[4]*r1[1]), a3+T(u3[4]*r1[1])
				a0, a1, a2, a3 = a0+T(u0[5]*r1[2]), a1+T(u1[5]*r1[2]), a2+T(u2[5]*r1[2]), a3+T(u3[5]*r1[2])
				a0, a1, a2, a3 = a0+T(u0[6]*r2[0]), a1+T(u1[6]*r2[0]), a2+T(u2[6]*r2[0]), a3+T(u3[6]*r2[0])
				a0, a1, a2, a3 = a0+T(u0[7]*r2[1]), a1+T(u1[7]*r2[1]), a2+T(u2[7]*r2[1]), a3+T(u3[7]*r2[1])
				a0, a1, a2, a3 = a0+T(u0[8]*r2[2]), a1+T(u1[8]*r2[2]), a2+T(u2[8]*r2[2]), a3+T(u3[8]*r2[2])
				at += ih * iw
			}
			if relu {
				a0, a1, a2, a3 = max(a0, 0), max(a1, 0), max(a2, 0), max(a3, 0)
			}
			o := oy*ow + ox
			d0[o], d1[o], d2[o], d3[o] = a0, a1, a2, a3
		}
	}
}
