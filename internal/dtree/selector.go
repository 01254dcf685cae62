package dtree

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/durable"
	"repro/internal/features"
	"repro/internal/sparse"
)

// This file is the serving face of the decision-tree baseline: a
// Selector that pairs a CART tree with the format list its classes
// index and the published SMAT feature pipeline, plus envelope
// serialisation so a trained tree ships as a checksummed deploy
// artifact. The serving ladder degrades to this rung when the CNN path
// is broken — the paper's own comparison guarantees it is strictly
// better than the always-CSR floor.

// ErrBadSelector reports a selector that cannot classify (nil tree,
// empty or mismatched format list).
var ErrBadSelector = errors.New("dtree: invalid selector")

// Selector is a deployable decision-tree format selector.
type Selector struct {
	Tree    *Tree
	Formats []sparse.Format
}

// validate checks the structural invariants once, at load/build time.
func (s *Selector) validate() error {
	if s == nil || s.Tree == nil || s.Tree.root == nil {
		return fmt.Errorf("%w: missing tree", ErrBadSelector)
	}
	if len(s.Formats) == 0 {
		return fmt.Errorf("%w: empty format list", ErrBadSelector)
	}
	if err := sparse.CheckFormats(s.Formats); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSelector, err)
	}
	if s.Tree.NumClasses > len(s.Formats) {
		return fmt.Errorf("%w: tree has %d classes for %d formats", ErrBadSelector, s.Tree.NumClasses, len(s.Formats))
	}
	return nil
}

// Predict is PredictPattern of m's pattern: the features read no value.
func (s *Selector) Predict(m *sparse.COO) (sparse.Format, error) {
	return s.PredictPattern(sparse.PatternOf(m))
}

// PredictPattern classifies a sparsity pattern through the published
// SMAT baseline feature pipeline. It validates the input, recovers any
// panic in feature extraction or tree walking into an error, and never
// returns a class outside the format list — the hardened entry point
// the serving ladder calls with the CNN already known sick.
func (s *Selector) PredictPattern(m *sparse.Pattern) (f sparse.Format, err error) {
	if err := s.validate(); err != nil {
		return 0, err
	}
	if m == nil {
		return 0, fmt.Errorf("%w: nil matrix", ErrBadSelector)
	}
	if r, c := m.Dims(); r <= 0 || c <= 0 || m.NNZ() == 0 {
		return 0, fmt.Errorf("%w: degenerate %dx%d matrix with %d nonzeros", ErrBadSelector, r, c, m.NNZ())
	}
	defer func() {
		if r := recover(); r != nil {
			f, err = 0, fmt.Errorf("dtree: prediction panic: %v", r)
		}
	}()
	x := features.BaselineExtract(m)
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("dtree: non-finite feature vector")
		}
	}
	cls := s.Tree.Predict(x)
	if cls < 0 || cls >= len(s.Formats) {
		return 0, fmt.Errorf("dtree: class %d out of range for %d formats", cls, len(s.Formats))
	}
	return s.Formats[cls], nil
}

// FitBaseline trains a Selector on baseline feature vectors X with
// labels y indexing formats — the trainDT pipeline packaged as a
// deployable artifact.
func FitBaseline(X [][]float64, y []int, formats []sparse.Format, cfg Config) (*Selector, error) {
	if len(formats) == 0 {
		return nil, fmt.Errorf("%w: empty format list", ErrBadSelector)
	}
	t, err := Train(X, y, len(formats), cfg)
	if err != nil {
		return nil, err
	}
	s := &Selector{Tree: t, Formats: formats}
	return s, s.validate()
}

// Heuristic builds a hand-constructed selector encoding the published
// format-selection rules of the SMAT lineage over the baseline
// features: strongly diagonal structure → DIA, uniformly filled rows →
// ELL, everything else → CSR (the always-safe floor). It needs no
// training data, so the serving ladder always has a decision-tree rung
// even when no trained artifact was deployed. Formats absent from the
// given list degrade to CSR (or the first listed format when even CSR
// is absent).
func Heuristic(formats []sparse.Format) *Selector {
	class := func(f sparse.Format) int {
		for i, g := range formats {
			if g == f {
				return i
			}
		}
		for i, g := range formats {
			if g == sparse.FormatCSR {
				return i
			}
		}
		return 0
	}
	leaf := func(f sparse.Format) *node { return &node{class: class(f)} }
	// Feature indices into features.BaselineNames.
	const (
		featELLFill      = 10 // nnz / (rows * max_row_nnz)
		featNumDiagsFrac = 11 // occupied diagonals / max dim
	)
	root := &node{
		feature:   featNumDiagsFrac,
		threshold: 0.02,
		// Few occupied diagonals relative to the dimension: the DIA
		// dense-diagonal layout wastes little and vectorises well.
		left: leaf(sparse.FormatDIA),
		right: &node{
			feature:   featELLFill,
			threshold: 0.65,
			// Ragged rows: CSR. Uniform rows: ELL's padded layout wins.
			left:  leaf(sparse.FormatCSR),
			right: leaf(sparse.FormatELL),
		},
	}
	return &Selector{
		Tree:    &Tree{NumClasses: len(formats), root: root},
		Formats: formats,
	}
}

// --- serialisation ---

// flatNode is the gob wire form of one tree node; children are indices
// into the node slice (-1 for none), so the recursive structure
// round-trips without gob's reference tracking.
type flatNode struct {
	Class     int
	Feature   int
	Threshold float64
	Left      int
	Right     int
}

// selectorBlob is the single gob value on the wire.
type selectorBlob struct {
	NumClasses int
	Formats    []int
	Nodes      []flatNode
}

func flatten(n *node, out *[]flatNode) int {
	if n == nil {
		return -1
	}
	idx := len(*out)
	*out = append(*out, flatNode{Class: n.class, Feature: n.feature, Threshold: n.threshold, Left: -1, Right: -1})
	(*out)[idx].Left = flatten(n.left, out)
	(*out)[idx].Right = flatten(n.right, out)
	return idx
}

func unflatten(nodes []flatNode, idx int, depth int) (*node, error) {
	if idx == -1 {
		return nil, nil
	}
	if idx < 0 || idx >= len(nodes) || depth > len(nodes) {
		return nil, fmt.Errorf("dtree: corrupt tree encoding: node index %d of %d", idx, len(nodes))
	}
	fn := nodes[idx]
	n := &node{class: fn.Class, feature: fn.Feature, threshold: fn.Threshold}
	var err error
	if n.left, err = unflatten(nodes, fn.Left, depth+1); err != nil {
		return nil, err
	}
	if n.right, err = unflatten(nodes, fn.Right, depth+1); err != nil {
		return nil, err
	}
	if (n.left == nil) != (n.right == nil) {
		return nil, fmt.Errorf("dtree: corrupt tree encoding: half-split node %d", idx)
	}
	if n.left != nil && (n.feature < 0 || n.feature >= features.BaselineDim) {
		return nil, fmt.Errorf("dtree: corrupt tree encoding: feature %d out of range", n.feature)
	}
	return n, nil
}

// Save writes the selector to w as a raw gob stream (compose with
// durable.WriteEnvelopeFile for at-rest artifacts — see SaveFile).
func (s *Selector) Save(w io.Writer) error {
	if err := s.validate(); err != nil {
		return err
	}
	blob := selectorBlob{NumClasses: s.Tree.NumClasses}
	for _, f := range s.Formats {
		blob.Formats = append(blob.Formats, int(f))
	}
	flatten(s.Tree.root, &blob.Nodes)
	if err := gob.NewEncoder(w).Encode(blob); err != nil {
		return fmt.Errorf("dtree: encoding: %w", err)
	}
	return nil
}

// Load reads a selector written by Save, validating the decoded
// structure (well-formed splits, in-range features and classes) so a
// corrupt-but-decodable artifact cannot reach the serving path.
func Load(r io.Reader) (*Selector, error) {
	var blob selectorBlob
	if err := gob.NewDecoder(r).Decode(&blob); err != nil {
		return nil, fmt.Errorf("dtree: decoding: %w", err)
	}
	if len(blob.Nodes) == 0 {
		return nil, fmt.Errorf("%w: no nodes", ErrBadSelector)
	}
	root, err := unflatten(blob.Nodes, 0, 0)
	if err != nil {
		return nil, err
	}
	s := &Selector{Tree: &Tree{NumClasses: blob.NumClasses, root: root}}
	for _, f := range blob.Formats {
		s.Formats = append(s.Formats, sparse.Format(f))
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	// Every leaf class must index the format list.
	for i, n := range blob.Nodes {
		if n.Left == -1 && (n.Class < 0 || n.Class >= len(s.Formats)) {
			return nil, fmt.Errorf("dtree: corrupt tree encoding: leaf %d class %d out of range", i, n.Class)
		}
	}
	return s, nil
}

// SaveFile writes the selector inside the versioned, CRC-checksummed
// envelope, atomically — the same at-rest guarantees as CNN model
// artifacts.
func (s *Selector) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		return err
	}
	return durable.WriteEnvelopeFile(path, durable.EnvelopeDTree, buf.Bytes())
}

// LoadFile reads a selector artifact, rejecting corrupt, truncated or
// wrong-kind files with the typed envelope errors.
func LoadFile(path string) (*Selector, error) {
	payload, err := durable.ReadEnvelopeFile(path, durable.EnvelopeDTree)
	if err != nil {
		return nil, fmt.Errorf("dtree: loading %s: %w", path, err)
	}
	return Load(bytes.NewReader(payload))
}
