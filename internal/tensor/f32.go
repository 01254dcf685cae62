package tensor

// Float32 kernels of the inference engine's dense and pooling layers.
// Training stays float64 (optimiser state is precision-hungry);
// inference tolerates float32 — the paper's GPU deployments run fp32.
// The convolution is Conv (conv.go), one kernel the engine runs at
// float32 and training at float64. Every function here writes into
// caller-provided storage and allocates nothing.

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
