package tensor

// Float32 kernels of the inference-only forward path. The training
// stack stays float64 (optimiser state is precision-hungry); inference
// tolerates float32 — the paper's GPU deployments run fp32. Every
// function here writes into caller-provided storage and allocates
// nothing.
//
// Rounding is part of the contract. Each convolution output is one
// float32 sum formed in a fixed order — bias first, then input
// channel, kernel row, kernel column, the order a row-major im2col
// matrix product adds them in — and every product is rounded to
// float32 before it is added (the explicit conversion forbids a fused
// multiply-add), so the result depends neither on the target
// architecture nor on how outputs are blocked.

// PadF32 copies a (c,h,w) input into dst as (c, h+2·padH, w+2·padW)
// with a zero border, the input layout ConvF32 reads.
func PadF32(dst, src []float32, c, h, w, padH, padW int) {
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

// ConvF32 computes a convolution with the bias add and an optional
// ReLU fused in: dst is (outC, OutH, OutW), w is (outC, InC·KH·KW),
// and in is the input with its zero border of g.PadH rows and g.PadW
// columns already in place, (InC, InH+2·PadH, InW+2·PadW) as PadF32
// lays it out. Each output is accumulated in a register. 3×3 kernels
// — every tower the selector builds — take four output channels at a
// time with the taps unrolled (conv3x3x4); any other shape, and the
// channels left over, take the one-output loop below it.
func ConvF32(dst, in, w, bias []float32, g ConvGeom, outC int, relu bool) {
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
		wk := w[oc*k : (oc+1)*k]
		out := dst[oc*oh*ow : (oc+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				acc := bias[oc]
				wi := 0
				for c := 0; c < g.InC; c++ {
					at := (c*ih+oy*g.StrideH)*iw + ox*g.StrideW
					for kh := 0; kh < g.KH; kh++ {
						x := in[at : at+g.KW]
						for kw, wv := range wk[wi : wi+g.KW] {
							acc += float32(wv * x[kw])
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
func conv3x3x4(dst, in, w, bias []float32, g ConvGeom, oc int, relu bool) {
	oh, ow := g.OutH(), g.OutW()
	ih, iw := g.InH+2*g.PadH, g.InW+2*g.PadW
	k := g.InC * 9
	n := oh * ow
	w0, w1, w2, w3 := w[oc*k:(oc+1)*k], w[(oc+1)*k:(oc+2)*k], w[(oc+2)*k:(oc+3)*k], w[(oc+3)*k:(oc+4)*k]
	b0, b1, b2, b3 := bias[oc], bias[oc+1], bias[oc+2], bias[oc+3]
	d0, d1, d2, d3 := dst[oc*n:(oc+1)*n], dst[(oc+1)*n:(oc+2)*n], dst[(oc+2)*n:(oc+3)*n], dst[(oc+3)*n:(oc+4)*n]
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			a0, a1, a2, a3 := b0, b1, b2, b3
			at := oy*g.StrideH*iw + ox*g.StrideW
			for c := 0; c < g.InC; c++ {
				u0, u1, u2, u3 := w0[c*9:c*9+9:c*9+9], w1[c*9:c*9+9:c*9+9], w2[c*9:c*9+9:c*9+9], w3[c*9:c*9+9:c*9+9]
				r0, r1, r2 := in[at:at+3:at+3], in[at+iw:at+iw+3:at+iw+3], in[at+2*iw:at+2*iw+3:at+2*iw+3]
				a0, a1, a2, a3 = a0+float32(u0[0]*r0[0]), a1+float32(u1[0]*r0[0]), a2+float32(u2[0]*r0[0]), a3+float32(u3[0]*r0[0])
				a0, a1, a2, a3 = a0+float32(u0[1]*r0[1]), a1+float32(u1[1]*r0[1]), a2+float32(u2[1]*r0[1]), a3+float32(u3[1]*r0[1])
				a0, a1, a2, a3 = a0+float32(u0[2]*r0[2]), a1+float32(u1[2]*r0[2]), a2+float32(u2[2]*r0[2]), a3+float32(u3[2]*r0[2])
				a0, a1, a2, a3 = a0+float32(u0[3]*r1[0]), a1+float32(u1[3]*r1[0]), a2+float32(u2[3]*r1[0]), a3+float32(u3[3]*r1[0])
				a0, a1, a2, a3 = a0+float32(u0[4]*r1[1]), a1+float32(u1[4]*r1[1]), a2+float32(u2[4]*r1[1]), a3+float32(u3[4]*r1[1])
				a0, a1, a2, a3 = a0+float32(u0[5]*r1[2]), a1+float32(u1[5]*r1[2]), a2+float32(u2[5]*r1[2]), a3+float32(u3[5]*r1[2])
				a0, a1, a2, a3 = a0+float32(u0[6]*r2[0]), a1+float32(u1[6]*r2[0]), a2+float32(u2[6]*r2[0]), a3+float32(u3[6]*r2[0])
				a0, a1, a2, a3 = a0+float32(u0[7]*r2[1]), a1+float32(u1[7]*r2[1]), a2+float32(u2[7]*r2[1]), a3+float32(u3[7]*r2[1])
				a0, a1, a2, a3 = a0+float32(u0[8]*r2[2]), a1+float32(u1[8]*r2[2]), a2+float32(u2[8]*r2[2]), a3+float32(u3[8]*r2[2])
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

// DenseF32 computes dst = w (out×in) × x + bias with an optional fused
// ReLU; the float32 fully connected forward. The dot product keeps
// four independent accumulators, same recipe as the tuned SpMV bodies.
func DenseF32(dst, w, x, bias []float32, out, in int, relu bool) {
	for o := 0; o < out; o++ {
		row := w[o*in : (o+1)*in]
		var s0, s1, s2, s3 float32
		i := 0
		for ; i+4 <= len(row) && i+4 <= len(x); i += 4 {
			s0 += float32(row[i] * x[i])
			s1 += float32(row[i+1] * x[i+1])
			s2 += float32(row[i+2] * x[i+2])
			s3 += float32(row[i+3] * x[i+3])
		}
		s := (s0 + s2) + (s1 + s3)
		for ; i < len(row) && i < len(x); i++ {
			s += float32(row[i] * x[i])
		}
		if bias != nil {
			s += bias[o]
		}
		if relu && s < 0 {
			s = 0
		}
		dst[o] = s
	}
}

// MaxPoolF32 pools a (c,h,w) input with a kh×kw window at the given
// stride into dst as (c,oh,ow). Every window must lie inside the
// input — floor semantics drop odd trailing rows and columns, and the
// caller clamps a window larger than the input — so the loops carry no
// bounds branches: each output row is the running maximum of kh·kw
// strided sweeps over input rows.
func MaxPoolF32(dst, src []float32, c, h, w, kh, kw, stride, oh, ow int) {
	for ch := 0; ch < c; ch++ {
		plane := src[ch*h*w : (ch+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			out := dst[(ch*oh+oy)*ow : (ch*oh+oy+1)*ow]
			for dy := 0; dy < kh; dy++ {
				row := plane[(oy*stride+dy)*w : (oy*stride+dy+1)*w]
				for dx := 0; dx < kw; dx++ {
					if dy+dx == 0 {
						for ox := range out {
							out[ox] = row[ox*stride]
						}
						continue
					}
					for ox := range out {
						out[ox] = max(out[ox], row[ox*stride+dx])
					}
				}
			}
		}
	}
}
