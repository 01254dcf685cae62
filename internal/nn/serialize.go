package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/durable"
	"repro/internal/tensor"
)

// LayerSpec is the serialisable description of one layer.
type LayerSpec struct {
	Type string
	Ints []int
	Rate float64
}

// modelBlob is the gob wire format of a model: architecture plus flat
// parameter values (shapes are implied by the architecture).
type modelBlob struct {
	Towers  [][]LayerSpec
	Head    []LayerSpec
	Weights [][]float64
	Shapes  [][]int
	Frozen  []bool
}

// specOf extracts the serialisable description of a layer.
func specOf(l Layer) (LayerSpec, error) {
	switch v := l.(type) {
	case *Conv2D:
		return LayerSpec{Type: "conv", Ints: []int{v.InC, v.OutC, v.KH, v.KW, v.StrideH, v.StrideW, v.PadH, v.PadW}}, nil
	case *MaxPool2D:
		return LayerSpec{Type: "pool", Ints: []int{v.K, v.Stride}}, nil
	case *ReLU:
		return LayerSpec{Type: "relu"}, nil
	case *Flatten:
		return LayerSpec{Type: "flatten"}, nil
	case *Dense:
		return LayerSpec{Type: "dense", Ints: []int{v.In, v.Out}}, nil
	case *Dropout:
		return LayerSpec{Type: "dropout", Rate: v.Rate}, nil
	default:
		return LayerSpec{}, fmt.Errorf("nn: cannot serialise layer %T", l)
	}
}

// builder turns a blob's layer specs into layers, in Params() order:
// each weighted layer is built around the blob's next weight slices,
// adopted rather than copied, with one gradient allocated per
// parameter, and each Dropout gets the seed every saved model's
// dropout stream has been drawn from.
//
// That seed is the next Int63 of one rand.NewSource(0) after the
// NormFloat64 draws NewConv2D and NewDense would make to He-initialise
// every weight matrix before the Dropout, so it depends on how many
// weights those layers hold. The builder makes the draws without
// storing them, and only when a Dropout follows them.
type builder struct {
	blob    *modelBlob
	next    int // index of the next weight slice to adopt
	rng     *rand.Rand
	pending int // weights initialised since the last draw
}

// layer builds one layer from its spec. A spec with a dimension that is
// not positive, or whose parameters are not the size of the weights
// the blob carries for them, is an error before anything is allocated
// for it.
func (bl *builder) layer(s LayerSpec) (Layer, error) {
	switch s.Type {
	case "conv":
		i := s.Ints
		if len(i) != 8 || i[4] <= 0 || i[5] <= 0 || i[6] < 0 || i[7] < 0 {
			return nil, fmt.Errorf("nn: bad conv spec %v", s)
		}
		w, err := bl.param("conv.w", i[1], i[0], i[2], i[3])
		if err != nil {
			return nil, fmt.Errorf("nn: bad conv spec %v: %w", s, err)
		}
		b, err := bl.param("conv.b", i[1])
		if err != nil {
			return nil, fmt.Errorf("nn: bad conv spec %v: %w", s, err)
		}
		bl.pending += w.Value.Size()
		return &Conv2D{InC: i[0], OutC: i[1], KH: i[2], KW: i[3],
			StrideH: i[4], StrideW: i[5], PadH: i[6], PadW: i[7], W: w, B: b}, nil
	case "pool":
		if len(s.Ints) != 2 || s.Ints[0] <= 0 || s.Ints[1] <= 0 {
			return nil, fmt.Errorf("nn: bad pool spec %v", s)
		}
		return NewMaxPool2D(s.Ints[0], s.Ints[1]), nil
	case "relu":
		return NewReLU(), nil
	case "flatten":
		return NewFlatten(), nil
	case "dense":
		if len(s.Ints) != 2 {
			return nil, fmt.Errorf("nn: bad dense spec %v", s)
		}
		w, err := bl.param("dense.w", s.Ints[1], s.Ints[0])
		if err != nil {
			return nil, fmt.Errorf("nn: bad dense spec %v: %w", s, err)
		}
		b, err := bl.param("dense.b", s.Ints[1])
		if err != nil {
			return nil, fmt.Errorf("nn: bad dense spec %v: %w", s, err)
		}
		bl.pending += w.Value.Size()
		return &Dense{In: s.Ints[0], Out: s.Ints[1], W: w, B: b}, nil
	case "dropout":
		return NewDropout(s.Rate, bl.dropoutSeed()), nil
	default:
		return nil, fmt.Errorf("nn: unknown layer type %q", s.Type)
	}
}

// param adopts the blob's next weight slice as a parameter that its
// layer's spec sizes by dims. The slice must hold exactly that many
// values and match its own declared shape; the product is never formed
// past the slice's length, so a lying spec cannot overflow it.
func (bl *builder) param(name string, dims ...int) (*Param, error) {
	k := bl.next
	if k == len(bl.blob.Weights) {
		return nil, fmt.Errorf("nn: weight count mismatch: layers want more than the blob's %d", k)
	}
	v, shape := bl.blob.Weights[k], bl.blob.Shapes[k]
	if rest := len(v); !take(&rest, dims...) || rest != 0 {
		return nil, fmt.Errorf("nn: weight %d size mismatch: layer wants %v, blob has %d", k, dims, len(v))
	}
	if rest := len(v); !take(&rest, shape...) || rest != 0 {
		return nil, fmt.Errorf("nn: weight %d has %d values, shape %v", k, len(v), shape)
	}
	bl.next++
	return &Param{Name: name, Value: tensor.FromSlice(v, shape...),
		Grad: tensor.New(shape...), Frozen: bl.blob.Frozen[k]}, nil
}

// dropoutSeed makes the pending draws and returns the next Int63.
func (bl *builder) dropoutSeed() int64 {
	if bl.rng == nil {
		bl.rng = rand.New(rand.NewSource(0))
	}
	for ; bl.pending > 0; bl.pending-- {
		bl.rng.NormFloat64()
	}
	return bl.rng.Int63()
}

// take subtracts the product of dims from budget. It reports false,
// leaving budget as it was, when a dimension is not positive or the
// product exceeds the budget; the product is never formed past the
// budget, so it cannot overflow.
func take(budget *int, dims ...int) bool {
	n := 1
	for _, d := range dims {
		if d <= 0 || n > *budget/d {
			return false
		}
		n *= d
	}
	*budget -= n
	return true
}

// checkCounts requires one shape and one frozen flag per weight slice.
func (b *modelBlob) checkCounts() error {
	if len(b.Shapes) != len(b.Weights) || len(b.Frozen) != len(b.Weights) {
		return fmt.Errorf("nn: model blob has %d weights, %d shapes and %d frozen flags",
			len(b.Weights), len(b.Shapes), len(b.Frozen))
	}
	return nil
}

// blobOf describes m as Save writes it: the layer specs, and a copy of
// each parameter's values and shape with its Frozen flag.
func blobOf(m *Model) (*modelBlob, error) {
	blob := &modelBlob{}
	for _, tw := range m.Towers {
		var specs []LayerSpec
		for _, l := range tw {
			s, err := specOf(l)
			if err != nil {
				return nil, err
			}
			specs = append(specs, s)
		}
		blob.Towers = append(blob.Towers, specs)
	}
	for _, l := range m.Head {
		s, err := specOf(l)
		if err != nil {
			return nil, err
		}
		blob.Head = append(blob.Head, s)
	}
	for _, p := range m.Params() {
		blob.Weights = append(blob.Weights, append([]float64(nil), p.Value.Data()...))
		blob.Shapes = append(blob.Shapes, append([]int(nil), p.Value.Shape()...))
		blob.Frozen = append(blob.Frozen, p.Frozen)
	}
	return blob, nil
}

// model builds the model the blob describes, around the blob's own
// weight slices. Nothing the blob declares is trusted: every weight
// must come with a frozen flag and a shape whose product is its
// length, and the layer specs must ask for exactly the weights the
// blob carries, so a blob that lies about sizes is an error, never a
// panic or an allocation its floats do not pay for.
func (b *modelBlob) model() (*Model, error) {
	if err := b.checkCounts(); err != nil {
		return nil, err
	}
	bl := builder{blob: b}
	m := &Model{}
	for _, specs := range b.Towers {
		var tw []Layer
		for _, s := range specs {
			l, err := bl.layer(s)
			if err != nil {
				return nil, err
			}
			tw = append(tw, l)
		}
		m.Towers = append(m.Towers, tw)
	}
	for _, s := range b.Head {
		l, err := bl.layer(s)
		if err != nil {
			return nil, err
		}
		m.Head = append(m.Head, l)
	}
	if bl.next != len(b.Weights) {
		return nil, fmt.Errorf("nn: weight count mismatch: model has %d, blob has %d",
			bl.next, len(b.Weights))
	}
	return m, nil
}

// Save writes the model's architecture and weights to w as gob.
func Save(w io.Writer, m *Model) error {
	blob, err := blobOf(m)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(w).Encode(blob); err != nil {
		return fmt.Errorf("nn: encoding model: %w", err)
	}
	return nil
}

// Load reconstructs a model previously written by Save, each layer
// built around the weights it decoded (see modelBlob.model for what a
// blob must satisfy). A blob carries no dropout seed: a loaded Dropout
// is seeded by replaying the draws of building every weighted layer
// before it, in Params() order, from rand.NewSource(0) — He
// initialisation of each weight matrix, then one Int63 per Dropout — so
// the seed is a function of the architecture alone, and the same on
// every Load and every Clone of it.
func Load(r io.Reader) (*Model, error) {
	var blob modelBlob
	if err := gob.NewDecoder(r).Decode(&blob); err != nil {
		return nil, fmt.Errorf("nn: decoding model: %w", err)
	}
	return blob.model()
}

// SaveFile writes the model to a file inside the checksummed envelope,
// atomically (durable.WriteEnvelopeFile).
func SaveFile(path string, m *Model) error {
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		return err
	}
	return durable.WriteEnvelopeFile(path, durable.EnvelopeModel, buf.Bytes())
}

// LoadFile reads a model from a file, rejecting truncated, corrupted,
// wrong-kind or wrong-version files with durable's typed errors
// (ErrTruncated, ErrChecksum, ErrBadMagic, ErrWrongKind, ErrVersion).
func LoadFile(path string) (*Model, error) {
	payload, err := durable.ReadEnvelopeFile(path, durable.EnvelopeModel)
	if err != nil {
		return nil, err
	}
	return Load(bytes.NewReader(payload))
}

// RestoreWeights copies parameter values from a Save blob into an
// existing model of the same architecture, in place. Unlike Load it
// never re-points the Param tensors, so trainer replicas that share
// parameter storage with the master keep seeing the restored values —
// the property checkpoint recovery relies on mid-training.
func RestoreWeights(m *Model, blob []byte) error {
	var b modelBlob
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&b); err != nil {
		return fmt.Errorf("nn: decoding weight blob: %w", err)
	}
	if err := b.checkCounts(); err != nil {
		return err
	}
	params := m.Params()
	if len(params) != len(b.Weights) {
		return fmt.Errorf("nn: weight count mismatch: model has %d, blob has %d",
			len(params), len(b.Weights))
	}
	for i, p := range params {
		if p.Value.Size() != len(b.Weights[i]) {
			return fmt.Errorf("nn: weight %d size mismatch: %d vs %d",
				i, p.Value.Size(), len(b.Weights[i]))
		}
	}
	for i, p := range params {
		copy(p.Value.Data(), b.Weights[i])
		p.Grad.Zero()
		p.Frozen = b.Frozen[i]
	}
	return nil
}

// Clone deep-copies a model (independent weights, fresh zero
// gradients), used by transfer learning to fork the source-platform
// model before fine-tuning. It is Load(Save(m)) without the encoding:
// each layer is rebuilt from its spec around a copy of its parameters'
// values, shapes and Frozen flags, and each Dropout gets the seed Load
// gives it, so the two agree bit for bit.
func Clone(m *Model) (*Model, error) {
	blob, err := blobOf(m)
	if err != nil {
		return nil, err
	}
	return blob.model()
}
