package nn

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/tensor"
)

// Infer32 is a compiled float32 inference engine for a Model with the
// selector's fixed input geometry. Compilation walks the layer stacks
// once, snapshots all weights as float32, fuses each Conv2D or Dense
// with a directly following ReLU, drops inference no-ops (Flatten,
// Dropout), and sizes one reusable float32 arena for the whole forward
// pass — inputs, the zero-bordered copy a padded convolution reads,
// two ping-pong activation buffers and the merged tower features — so
// a prediction performs zero heap allocations and no layer-type
// dispatch beyond a switch on a precompiled op code. Convolutions are
// direct (tensor.Conv, the kernel training runs at float64): no lowered
// matrix is ever built.
//
// The engine snapshots weights at build time: after further training
// the owner must rebuild (the selector drops its engine whenever a
// training entry point runs). Accuracy: float32 carries ~7 decimal
// digits; class probabilities can drift ~1e-6..1e-4 relative to the
// float64 path, which can flip the argmax only when the top two
// classes are closer than the model's own noise floor.
type Infer32 struct {
	towers  [][]op32
	head    []op32
	towerIn [][3]int // (C,H,W) per tower input
	featLen []int    // flattened feature size per tower
	classes int
	inLen   int // all tower inputs, back to back
	maxVol  int // largest activation volume anywhere in the net
	maxPad  int // largest zero-bordered convolution input
	featTot int

	scratch sync.Pool // of *arena32
}

type opKind uint8

const (
	opConv opKind = iota
	opRelu
	opPool
	opDense
)

// op32 is one compiled layer application.
type op32 struct {
	kind opKind
	// conv
	geom     tensor.ConvGeom
	outC     int
	w, b     []float32
	fuseRelu bool
	// pool: input shape, the window clamped to it, output shape
	inC, inH, inW  int
	kh, kw, stride int
	outH, outW     int
	// dense
	denseIn, denseOut int
	outLen            int // flattened output size, every kind
}

// arena32 is one caller's scratch: a single allocation carved into the
// buffers of a forward pass.
type arena32 struct {
	in   []float32 // tower inputs, back to back
	pad  []float32 // zero-bordered convolution input
	a, b []float32 // ping-pong activations
	feat []float32 // concatenated tower features
}

func (e *Infer32) newArena() *arena32 {
	buf := make([]float32, e.inLen+e.maxPad+2*e.maxVol+e.featTot)
	carve := func(n int) []float32 {
		part := buf[:n:n]
		buf = buf[n:]
		return part
	}
	return &arena32{in: carve(e.inLen), pad: carve(e.maxPad), a: carve(e.maxVol), b: carve(e.maxVol), feat: carve(e.featTot)}
}

// BuildInfer32 compiles a model for the given per-tower input shapes
// (each (C,H,W)). It returns an error on any layer type outside the
// selector's inference set.
func BuildInfer32(m *Model, inputShapes [][]int) (*Infer32, error) {
	if m == nil {
		return nil, fmt.Errorf("nn: BuildInfer32: nil model")
	}
	if len(inputShapes) != len(m.Towers) {
		return nil, fmt.Errorf("nn: BuildInfer32: %d towers, %d input shapes", len(m.Towers), len(inputShapes))
	}
	e := &Infer32{}
	for i, tw := range m.Towers {
		shape := inputShapes[i]
		if len(shape) != 3 {
			return nil, fmt.Errorf("nn: BuildInfer32: tower %d input shape %v is not (C,H,W)", i, shape)
		}
		ops, outLen, err := e.compileStack(tw, shape)
		if err != nil {
			return nil, fmt.Errorf("nn: BuildInfer32: tower %d: %w", i, err)
		}
		e.towers = append(e.towers, ops)
		e.towerIn = append(e.towerIn, [3]int{shape[0], shape[1], shape[2]})
		e.featLen = append(e.featLen, outLen)
		e.inLen += volume(shape)
		e.featTot += outLen
	}
	var err error
	if e.head, e.classes, err = e.compileStack(m.Head, []int{e.featTot}); err != nil {
		return nil, fmt.Errorf("nn: BuildInfer32: head: %w", err)
	}
	e.scratch.New = func() any { return e.newArena() }
	return e, nil
}

// compileStack lowers one layer stack, fusing ReLUs into a preceding
// Conv2D/Dense and dropping Flatten and Dropout. It returns the
// compiled ops and the flattened output size.
func (e *Infer32) compileStack(layers []Layer, shape []int) ([]op32, int, error) {
	var ops []op32
	e.maxVol = max(e.maxVol, volume(shape))
	// fuse reports whether layer li is directly followed by a ReLU,
	// and if so steps over it.
	fuse := func(li *int) bool {
		if *li+1 < len(layers) {
			if _, isRelu := layers[*li+1].(*ReLU); isRelu {
				*li++
				return true
			}
		}
		return false
	}
	for li := 0; li < len(layers); li++ {
		op := op32{kind: opRelu} // what a ReLU nothing fused becomes
		switch l := layers[li].(type) {
		case *Conv2D:
			if len(shape) != 3 {
				return nil, 0, fmt.Errorf("%s on non-(C,H,W) input %v", l.Name(), shape)
			}
			g := l.geom(shape)
			if err := g.Validate(); err != nil {
				return nil, 0, err
			}
			op = op32{
				kind: opConv, geom: g, outC: l.OutC, fuseRelu: fuse(&li),
				w: toF32(l.W.Value.Data()), b: toF32(l.B.Value.Data()),
			}
			shape = []int{l.OutC, g.OutH(), g.OutW()}
			if g.PadH+g.PadW > 0 {
				e.maxPad = max(e.maxPad, g.InC*(g.InH+2*g.PadH)*(g.InW+2*g.PadW))
			}
		case *MaxPool2D:
			if len(shape) != 3 {
				return nil, 0, fmt.Errorf("%s on non-(C,H,W) input %v", l.Name(), shape)
			}
			op = op32{
				kind: opPool, kh: min(l.K, shape[1]), kw: min(l.K, shape[2]), stride: l.Stride,
				inC: shape[0], inH: shape[1], inW: shape[2],
			}
			shape = l.OutShape(shape)
			op.outH, op.outW = shape[1], shape[2]
		case *Dense:
			if volume(shape) != l.In {
				return nil, 0, fmt.Errorf("%s got %d inputs", l.Name(), volume(shape))
			}
			op = op32{
				kind: opDense, denseIn: l.In, denseOut: l.Out, fuseRelu: fuse(&li),
				w: toF32(l.W.Value.Data()), b: toF32(l.B.Value.Data()),
			}
			shape = []int{l.Out}
		case *ReLU:
		case *Flatten:
			shape = []int{volume(shape)}
			continue
		case *Dropout:
			continue // identity at inference
		default:
			return nil, 0, fmt.Errorf("unsupported inference layer %s", l.Name())
		}
		op.outLen = volume(shape)
		e.maxVol = max(e.maxVol, op.outLen)
		ops = append(ops, op)
	}
	return ops, volume(shape), nil
}

func toF32(src []float64) []float32 {
	dst := make([]float32, len(src))
	for i, v := range src {
		dst[i] = float32(v)
	}
	return dst
}

// Classes returns the number of output classes.
func (e *Infer32) Classes() int { return e.classes }

// PredictInto runs the compiled forward pass on inputs that fill
// writes in place: fill receives the input region of the pass's own
// arena, contents unspecified — each tower's (C,H,W) input row-major,
// towers back to back. It writes softmax probabilities into probs (len
// must equal Classes()) and returns the argmax class. It allocates
// nothing: the arena comes from an internal pool, so concurrent
// callers each get their own.
func (e *Infer32) PredictInto(probs []float64, fill func(in []float32) error) (int, error) {
	if len(probs) != e.classes {
		return 0, fmt.Errorf("nn: Infer32: probs buffer has %d slots, want %d", len(probs), e.classes)
	}
	s := e.scratch.Get().(*arena32)
	defer e.scratch.Put(s)
	if err := fill(s.in); err != nil {
		return 0, err
	}
	in, feat := s.in, s.feat
	for ti, ops := range e.towers {
		n := e.towerIn[ti][0] * e.towerIn[ti][1] * e.towerIn[ti][2]
		copy(feat, e.runOps(ops, in[:n], s))
		in, feat = in[n:], feat[e.featLen[ti]:]
	}
	return softmaxInto(probs, e.runOps(e.head, s.feat, s)), nil
}

// Predict is PredictInto for float64 tower inputs, one tensor per
// tower.
func (e *Infer32) Predict(inputs []*tensor.Tensor, probs []float64) (int, error) {
	if len(inputs) != len(e.towers) {
		return 0, fmt.Errorf("nn: Infer32: %d towers, got %d inputs", len(e.towers), len(inputs))
	}
	return e.PredictInto(probs, func(in []float32) error {
		for ti, t := range inputs {
			want := e.towerIn[ti]
			if t.Size() != want[0]*want[1]*want[2] {
				return fmt.Errorf("nn: Infer32: tower %d input has %d elements, want %dx%dx%d",
					ti, t.Size(), want[0], want[1], want[2])
			}
			for i, v := range t.Data() {
				in[i] = float32(v)
			}
			in = in[t.Size():]
		}
		return nil
	})
}

// runOps executes a compiled stack: each op reads cur and writes the
// activation buffer cur is not in; in-place ops (a bare ReLU) keep it.
func (e *Infer32) runOps(ops []op32, cur []float32, s *arena32) []float32 {
	dst, spare := s.a, s.b
	for oi := range ops {
		op := &ops[oi]
		switch op.kind {
		case opConv:
			if g := op.geom; g.PadH+g.PadW > 0 {
				tensor.Pad(s.pad, cur, g.InC, g.InH, g.InW, g.PadH, g.PadW)
				cur = s.pad
			}
			tensor.Conv(dst, cur, op.w, op.b, op.geom, op.outC, op.fuseRelu)
		case opPool:
			tensor.MaxPoolF32(dst, cur, op.inC, op.inH, op.inW, op.kh, op.kw, op.stride, op.outH, op.outW)
		case opDense:
			tensor.DenseF32(dst, op.w, cur, op.b, op.denseOut, op.denseIn, op.fuseRelu)
		case opRelu:
			for i, v := range cur {
				cur[i] = max(v, 0)
			}
			continue
		}
		cur = dst[:op.outLen]
		dst, spare = spare, dst
	}
	return cur
}

// softmaxInto computes a numerically stable softmax of the float32
// logits into the float64 probs buffer and returns the argmax.
func softmaxInto(probs []float64, logits []float32) int {
	best := 0
	maxV := logits[0]
	for i, v := range logits {
		if v > maxV {
			maxV, best = v, i
		}
	}
	sum := 0.0
	for i, v := range logits {
		p := math.Exp(float64(v - maxV))
		probs[i] = p
		sum += p
	}
	for i := range probs {
		probs[i] /= sum
	}
	return best
}
