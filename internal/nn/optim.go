package nn

import (
	"fmt"
	"math"
)

// OptState is a serialisable snapshot of the optimiser's internal state
// (step count and per-parameter slot buffers, addressed by the
// parameter's index in Model.Params() order). Checkpoints carry it so a
// resumed run continues with identical optimiser dynamics instead of
// cold-started moments.
type OptState struct {
	T     int
	Slots map[string][][]float64
}

// slotSnapshot deep-copies one map-backed slot in params order.
func slotSnapshot(slot map[*Param][]float64, params []*Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		if v := slot[p]; v != nil {
			out[i] = append([]float64(nil), v...)
		}
	}
	return out
}

// slotRestore re-installs a snapshot taken with slotSnapshot.
func slotRestore(slot map[*Param][]float64, params []*Param, saved [][]float64) {
	for p := range slot {
		delete(slot, p)
	}
	for i, p := range params {
		if i < len(saved) && saved[i] != nil {
			slot[p] = append([]float64(nil), saved[i]...)
		}
	}
}

// Adam is the Adam optimiser (Kingma & Ba) with optional decoupled
// weight decay (AdamW), the de-facto default for CNN training and the
// one optimiser the trainer runs. Its step skips Frozen parameters (the
// top-evolvement transfer mechanism relies on it); LR is what
// divergence recovery backs off and checkpoints carry.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	WeightDecay           float64 // decoupled (AdamW-style); 0 disables
	t                     int
	m, v                  map[*Param][]float64
}

// NewAdam builds an Adam optimiser with standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param][]float64), v: make(map[*Param][]float64),
	}
}

// Step applies one Adam update using the parameters' Grad fields,
// dividing by batchSize to average the accumulated sample gradients.
func (o *Adam) Step(params []*Param, batchSize int) {
	if batchSize < 1 {
		batchSize = 1
	}
	inv := 1.0 / float64(batchSize)
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		if p.Frozen {
			continue
		}
		m := o.m[p]
		v := o.v[p]
		if m == nil {
			m = make([]float64, p.Value.Size())
			v = make([]float64, p.Value.Size())
			o.m[p] = m
			o.v[p] = v
		}
		pd := p.Value.Data()
		gd := p.Grad.Data()
		for i := range pd {
			g := gd[i] * inv
			m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
			v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
			mHat := m[i] / bc1
			vHat := v[i] / bc2
			pd[i] -= o.LR * (mHat/(math.Sqrt(vHat)+o.Eps) + o.WeightDecay*pd[i])
		}
	}
}

// StateSnapshot deep-copies the step count and moment buffers.
func (o *Adam) StateSnapshot(params []*Param) OptState {
	return OptState{
		T: o.t,
		Slots: map[string][][]float64{
			"m": slotSnapshot(o.m, params),
			"v": slotSnapshot(o.v, params),
		},
	}
}

// checkState reports whether st could have been snapshotted from these
// parameters: no more slots than parameters, every slot the size of
// its parameter, and an m slot exactly where there is a v slot. Step
// would index past a short slot, or a missing v, and panic.
func (o *Adam) checkState(params []*Param, st OptState) error {
	m, v := st.Slots["m"], st.Slots["v"]
	if len(m) > len(params) || len(v) > len(params) {
		return fmt.Errorf("nn: optimiser state has %d m and %d v slots for %d parameters",
			len(m), len(v), len(params))
	}
	for i, p := range params {
		var mi, vi []float64
		if i < len(m) {
			mi = m[i]
		}
		if i < len(v) {
			vi = v[i]
		}
		if (mi == nil) != (vi == nil) {
			return fmt.Errorf("nn: optimiser state for parameter %d has one of its m and v slots", i)
		}
		if mi != nil && (len(mi) != p.Value.Size() || len(vi) != p.Value.Size()) {
			return fmt.Errorf("nn: optimiser state for parameter %d has slots of %d and %d values for %d",
				i, len(mi), len(vi), p.Value.Size())
		}
	}
	return nil
}

// RestoreState reinstalls the step count and moment buffers from a
// snapshot.
func (o *Adam) RestoreState(params []*Param, st OptState) {
	o.t = st.T
	if o.m == nil {
		o.m = make(map[*Param][]float64)
	}
	if o.v == nil {
		o.v = make(map[*Param][]float64)
	}
	slotRestore(o.m, params, st.Slots["m"])
	slotRestore(o.v, params, st.Slots["v"])
}
