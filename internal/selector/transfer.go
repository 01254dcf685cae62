package selector

import (
	"fmt"

	"repro/internal/nn"
)

// Transfer learning (Section 6): migrate a selector trained on one
// platform to another without paying the full label-collection and
// training cost.

// TransferMethod selects the migration scheme compared in Figure 9.
type TransferMethod int

// Migration schemes.
const (
	// FromScratch discards the source model and trains fresh weights —
	// the baseline the transfer methods are compared against.
	FromScratch TransferMethod = iota
	// ContinuousEvolvement initialises from the source model's weights
	// and fine-tunes all of them on the new platform's labels.
	ContinuousEvolvement
	// TopEvolvement freezes the convolutional towers (the "CNN codes"
	// extractor) and retrains only the fully connected head. Training
	// a model in this state runs the towers once per record, not once
	// per epoch: see Selector.encodeFrozen.
	TopEvolvement
)

// String names the method as in Figure 9.
func (t TransferMethod) String() string {
	switch t {
	case ContinuousEvolvement:
		return "continuous evolvement"
	case TopEvolvement:
		return "top evolvement"
	default:
		return "from scratch"
	}
}

// TransferMethods returns the three Figure 9 methods.
func TransferMethods() []TransferMethod {
	return []TransferMethod{FromScratch, ContinuousEvolvement, TopEvolvement}
}

// Transfer derives a new selector for a new platform from src using the
// given method. The returned selector is untrained-on-the-target: call
// Train/TrainSamples with target-platform labels to complete the
// migration. src is never mutated.
func Transfer(src *Selector, method TransferMethod) (*Selector, error) {
	switch method {
	case FromScratch:
		cfg := src.Cfg
		cfg.Seed += 977 // fresh initialisation
		return New(cfg)
	case ContinuousEvolvement:
		m, err := nn.Clone(src.Model)
		if err != nil {
			return nil, err
		}
		m.FreezeTowers(false)
		return &Selector{Cfg: src.Cfg, Model: m}, nil
	case TopEvolvement:
		m, err := nn.Clone(src.Model)
		if err != nil {
			return nil, err
		}
		m.FreezeTowers(true)
		return &Selector{Cfg: src.Cfg, Model: m}, nil
	default:
		return nil, fmt.Errorf("selector: unknown transfer method %v", method)
	}
}
