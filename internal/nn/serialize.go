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

// buildLayer reconstructs a layer from its spec. Weighted layers get
// placeholder parameters that the caller overwrites. budget is how many
// weights the blob still carries: a spec with a dimension that is not
// positive, or whose parameters do not fit in the budget, is an error
// before anything is allocated for it.
func buildLayer(s LayerSpec, rng *rand.Rand, budget *int) (Layer, error) {
	switch s.Type {
	case "conv":
		i := s.Ints
		if len(i) != 8 || i[4] <= 0 || i[5] <= 0 || i[6] < 0 || i[7] < 0 ||
			!take(budget, i[1], i[0], i[2], i[3]) || !take(budget, i[1]) {
			return nil, fmt.Errorf("nn: bad conv spec %v", s)
		}
		return NewConv2D(i[0], i[1], i[2], i[3], i[4], i[5], i[6], i[7], rng), nil
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
		if len(s.Ints) != 2 || !take(budget, s.Ints[1], s.Ints[0]) || !take(budget, s.Ints[1]) {
			return nil, fmt.Errorf("nn: bad dense spec %v", s)
		}
		return NewDense(s.Ints[0], s.Ints[1], rng), nil
	case "dropout":
		return NewDropout(s.Rate, rng.Int63()), nil
	default:
		return nil, fmt.Errorf("nn: unknown layer type %q", s.Type)
	}
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

// Save writes the model's architecture and weights to w as gob.
func Save(w io.Writer, m *Model) error {
	blob := modelBlob{}
	for _, tw := range m.Towers {
		var specs []LayerSpec
		for _, l := range tw {
			s, err := specOf(l)
			if err != nil {
				return err
			}
			specs = append(specs, s)
		}
		blob.Towers = append(blob.Towers, specs)
	}
	for _, l := range m.Head {
		s, err := specOf(l)
		if err != nil {
			return err
		}
		blob.Head = append(blob.Head, s)
	}
	for _, p := range m.Params() {
		blob.Weights = append(blob.Weights, append([]float64(nil), p.Value.Data()...))
		blob.Shapes = append(blob.Shapes, append([]int(nil), p.Value.Shape()...))
		blob.Frozen = append(blob.Frozen, p.Frozen)
	}
	if err := gob.NewEncoder(w).Encode(blob); err != nil {
		return fmt.Errorf("nn: encoding model: %w", err)
	}
	return nil
}

// Load reconstructs a model previously written by Save. Nothing the
// blob declares is trusted: the layer specs may imply no more
// parameters than the blob carries floats, and every weight must come
// with a frozen flag and a shape whose product is its length, so a
// blob that passed its envelope's CRC but lies about sizes is an
// error, never a panic or an allocation its bytes do not pay for.
func Load(r io.Reader) (*Model, error) {
	var blob modelBlob
	if err := gob.NewDecoder(r).Decode(&blob); err != nil {
		return nil, fmt.Errorf("nn: decoding model: %w", err)
	}
	if err := blob.checkCounts(); err != nil {
		return nil, err
	}
	budget := 0
	for _, w := range blob.Weights {
		budget += len(w)
	}
	rng := rand.New(rand.NewSource(0))
	m := &Model{}
	for _, specs := range blob.Towers {
		var tw []Layer
		for _, s := range specs {
			l, err := buildLayer(s, rng, &budget)
			if err != nil {
				return nil, err
			}
			tw = append(tw, l)
		}
		m.Towers = append(m.Towers, tw)
	}
	for _, s := range blob.Head {
		l, err := buildLayer(s, rng, &budget)
		if err != nil {
			return nil, err
		}
		m.Head = append(m.Head, l)
	}
	params := m.Params()
	if len(params) != len(blob.Weights) {
		return nil, fmt.Errorf("nn: weight count mismatch: model has %d, blob has %d",
			len(params), len(blob.Weights))
	}
	// The layers hold pointers to these Param structs, so assigning
	// through them re-points the whole model at the loaded weights.
	for i, p := range params {
		if p.Value.Size() != len(blob.Weights[i]) {
			return nil, fmt.Errorf("nn: weight %d size mismatch: %d vs %d",
				i, p.Value.Size(), len(blob.Weights[i]))
		}
		if rest := len(blob.Weights[i]); !take(&rest, blob.Shapes[i]...) || rest != 0 {
			return nil, fmt.Errorf("nn: weight %d has %d values, shape %v",
				i, len(blob.Weights[i]), blob.Shapes[i])
		}
		p.Value = tensor.FromSlice(blob.Weights[i], blob.Shapes[i]...)
		p.Grad = tensor.New(blob.Shapes[i]...)
		p.Frozen = blob.Frozen[i]
	}
	return m, nil
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

// Clone deep-copies a model (independent weights), used by transfer
// learning to fork the source-platform model before fine-tuning.
func Clone(m *Model) (*Model, error) {
	// Round-trip through the serialiser: one code path to maintain.
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		errc <- Save(pw, m)
		pw.Close()
	}()
	out, err := Load(pr)
	if err != nil {
		return nil, err
	}
	if err := <-errc; err != nil {
		return nil, err
	}
	return out, nil
}
