package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Model is the paper's CNN shape: one convolutional tower per input
// source, whose flattened features are concatenated and fed to a fully
// connected head ending in class logits (Figure 7/10). The traditional
// early-merging structure (Figure 6) is a Model with a single tower
// whose input stacks all channels.
type Model struct {
	Towers [][]Layer
	Head   []Layer
	// Backward bookkeeping, set by the last training-mode forward: the
	// feature size of each tower it ran — none (empty, not nil) for a
	// codes sample, which leaves nothing beneath the head to reach.
	lastSizes []int
}

// NewModel builds a model from tower stacks and a head stack.
func NewModel(towers [][]Layer, head []Layer) *Model {
	return &Model{Towers: towers, Head: head}
}

// Params returns all learnable parameters, towers first then head.
func (m *Model) Params() []*Param {
	var ps []*Param
	for _, tw := range m.Towers {
		for _, l := range tw {
			ps = append(ps, l.Params()...)
		}
	}
	for _, l := range m.Head {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// TowerParams returns only the tower (feature extractor) parameters —
// the "CNN codes" producers that top evolvement freezes.
func (m *Model) TowerParams() []*Param {
	var ps []*Param
	for _, tw := range m.Towers {
		for _, l := range tw {
			ps = append(ps, l.Params()...)
		}
	}
	return ps
}

// FreezeTowers sets the Frozen flag on all tower parameters — the top
// evolvement transfer method: only the head learns on the new platform.
func (m *Model) FreezeTowers(frozen bool) {
	for _, p := range m.TowerParams() {
		p.Frozen = frozen
	}
}

// TowersFrozen reports whether every tower parameter is frozen: the
// towers are then a fixed function of the input, and training may run
// on their Codes.
func (m *Model) TowersFrozen() bool {
	for _, p := range m.TowerParams() {
		if !p.Frozen {
			return false
		}
	}
	return true
}

// Codes runs the towers in inference mode and returns their flattened
// features concatenated: the "CNN codes" of Section 6, the vector the
// head reads. The towers are Conv/ReLU/MaxPool/Flatten only, none of
// which computes differently when training, so the codes equal what a
// training-mode Forward feeds the head bit for bit. Inference mode
// writes no layer state: Codes is safe for concurrent callers.
func (m *Model) Codes(inputs []*tensor.Tensor) *tensor.Tensor {
	return m.towers(inputs, false)
}

// towers runs each tower on its input and concatenates the flattened
// features. len(inputs) must equal len(m.Towers).
func (m *Model) towers(inputs []*tensor.Tensor, train bool) *tensor.Tensor {
	if len(inputs) != len(m.Towers) {
		panic(fmt.Sprintf("nn: model has %d towers, got %d inputs", len(m.Towers), len(inputs)))
	}
	feats := make([]*tensor.Tensor, len(inputs))
	sizes := make([]int, len(inputs))
	total := 0
	for i, in := range inputs {
		x := in
		for _, l := range m.Towers[i] {
			x = l.Forward(x, train)
		}
		feats[i] = x
		sizes[i] = x.Size()
		total += x.Size()
	}
	merged := tensor.New(total)
	off := 0
	for _, f := range feats {
		copy(merged.Data()[off:], f.Data())
		off += f.Size()
	}
	if train {
		m.lastSizes = sizes
	}
	return merged
}

// Forward runs all towers on their respective inputs, concatenates the
// flattened features, and runs the head.
func (m *Model) Forward(inputs []*tensor.Tensor, train bool) *tensor.Tensor {
	return m.forward(Sample{Inputs: inputs}, train)
}

// forward is the one path from a sample to logits: an inputs sample
// through towers and head, a codes sample through the head alone.
func (m *Model) forward(s Sample, train bool) *tensor.Tensor {
	x := s.Codes
	if x == nil {
		x = m.towers(s.Inputs, train)
	} else if train {
		m.lastSizes = []int{}
	}
	for _, l := range m.Head {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates dL/dLogits through the head, splits the merged
// gradient, and propagates each slice through the tower it came from —
// every tower after an inputs sample, none after a codes sample, where
// back-propagation stops at the head: no tower reads dL/dCodes, so a
// Dense first layer accumulates its parameter gradients and computes
// no input gradient. It returns nothing: gradients land in the Params.
func (m *Model) Backward(gradLogits *tensor.Tensor) {
	if m.lastSizes == nil {
		panic("nn: Model.Backward without Forward(train)")
	}
	g := gradLogits
	for i := len(m.Head) - 1; i >= 0; i-- {
		if d, ok := m.Head[i].(*Dense); ok && i == 0 && len(m.lastSizes) == 0 {
			d.backwardParams(g)
			return
		}
		g = m.Head[i].Backward(g)
	}
	off := 0
	for i, size := range m.lastSizes {
		tw := m.Towers[i]
		slice := tensor.FromSlice(append([]float64(nil), g.Data()[off:off+size]...), size)
		off += size
		gt := slice
		// The tower's last layer output was flattened by concat; its
		// Backward chain restores shapes (towers end in Flatten).
		for j := len(tw) - 1; j >= 0; j-- {
			gt = tw[j].Backward(gt)
		}
	}
}

// ZeroGrads clears every parameter gradient.
func (m *Model) ZeroGrads() {
	for _, p := range m.Params() {
		p.Grad.Zero()
	}
}

// Replica returns a model sharing parameter values with private
// activation state and gradient buffers, for data-parallel workers.
func (m *Model) Replica() *Model {
	r := &Model{
		Towers: make([][]Layer, len(m.Towers)),
		Head:   make([]Layer, len(m.Head)),
	}
	for i, tw := range m.Towers {
		r.Towers[i] = make([]Layer, len(tw))
		for j, l := range tw {
			r.Towers[i][j] = l.Replica()
		}
	}
	for j, l := range m.Head {
		r.Head[j] = l.Replica()
	}
	return r
}

// Summary renders the architecture with shapes, given per-tower input
// shapes — the textual equivalent of the paper's Figure 10.
func (m *Model) Summary(inputShapes [][]int) string {
	out := ""
	total := 0
	for i, tw := range m.Towers {
		shape := inputShapes[i]
		out += fmt.Sprintf("Tower %d: INPUT%s\n", i, shapeString(shape))
		for _, l := range tw {
			shape = l.OutShape(shape)
			out += fmt.Sprintf("  %-40s -> %s\n", l.Name(), shapeString(shape))
		}
		total += volume(shape)
	}
	shape := []int{total}
	out += fmt.Sprintf("Merge: concat -> %s\n", shapeString(shape))
	for _, l := range m.Head {
		shape = l.OutShape(shape)
		out += fmt.Sprintf("  %-40s -> %s\n", l.Name(), shapeString(shape))
	}
	out += fmt.Sprintf("Softmax over %d classes\n", shape[0])
	return out
}

func volume(s []int) int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}
