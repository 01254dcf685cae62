package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/robust"
	"repro/internal/selector"
	"repro/internal/sparse"
)

// The graceful-degradation ladder. Rung 1 is the CNN selector (the
// paper's contribution), guarded by a circuit breaker; rung 2 is the
// decision-tree baseline the paper beats (SMAT lineage — cheaper,
// feature-driven, independently trained); rung 3 is the always-CSR
// floor (the paper's 2.23x baseline). A broken model therefore costs
// prediction quality — CNN accuracy down to tree accuracy down to
// baseline — while availability holds as long as any rung stands.

// Rung labels, reported in responses and /metrics.
const (
	rungCNN   = "cnn"
	rungDTree = "dtree"
	rungCSR   = "csr"
)

// errCNNOpen is the recorded reason when the breaker short-circuits
// the CNN rung without trying it.
var errCNNOpen = errors.New("serve: cnn rung unavailable (breaker open)")

// errBrownout is the recorded reason when the overload plane steps the
// ladder down for capacity, not health: the CNN works fine, there is
// just not enough of it for the offered load.
var errBrownout = errors.New("serve: cnn rung browned out (overload)")

// brownedOut reports whether the overload plane has stepped the ladder
// down to the dtree rung. Always false without the plane or a tree.
func (s *Server) brownedOut() bool {
	return s.adm != nil && s.dtree != nil && s.adm.brownedOut()
}

// CurrentRung reports which ladder rung would answer a request arriving
// now: "cnn" while the breaker admits CNN traffic (closed or probing)
// and the overload plane is not browned out, "dtree" while the breaker
// is open (or brownout engaged) and the tree rung stands, "csr" when
// the breaker is open and there is no tree — the hard-down state
// /readyz turns into a 503. A browned-out replica reports dtree so the
// router's prober sees it as degraded-but-routable, exactly like an
// open breaker.
func (s *Server) CurrentRung() string {
	if s.brownedOut() {
		return rungDTree
	}
	if s.breaker.State() != robust.BreakerOpen {
		return rungCNN
	}
	if s.dtree != nil {
		return rungDTree
	}
	return rungCSR
}

// ladderPredict answers one request through the ladder. It always
// returns an answer; the rung string says which layer produced it.
// ctx carries the per-request deadline budget.
func (s *Server) ladderPredict(ctx context.Context, sel *selector.Selector, pat *sparse.Pattern) (selector.Prediction, string) {
	var reason error
	if s.brownedOut() {
		// Brownout: shed quality before availability. The breaker is
		// deliberately untouched — this is a capacity decision, and it
		// must not cost the CNN rung its health record.
		s.met.brownoutShortCircuits.Inc()
		reason = errBrownout
	} else if s.breaker.Allow() {
		pred, err := s.cnnOnce(ctx, sel, pat)
		switch {
		case err == nil:
			s.breaker.Success()
			return pred, rungCNN
		case errors.Is(err, selector.ErrBadInput):
			// The request is at fault, not the model: the breaker stays
			// untouched and the tree (same validation) is skipped.
			return selector.FallbackPrediction(err), rungCSR
		case ctx.Err() != nil:
			// The request died (client gone / deadline spent queueing):
			// no evidence against the model, no degraded retry — the
			// answer is going nowhere anyway.
			return selector.FallbackPrediction(err), rungCSR
		default:
			s.breaker.Failure()
			s.met.cnnFailures.With(cnnFailureLabel(err)).Inc()
			s.logf("serve: cnn rung failed: %v", err)
			reason = err
		}
	} else {
		s.met.breakerShortCircuits.Inc()
		reason = errCNNOpen
	}

	if s.dtree != nil {
		if f, err := s.dtree.PredictPattern(pat); err == nil {
			// FellBack marks any non-CNN answer; Reason records why the
			// CNN rung did not take it.
			return selector.Prediction{Format: f, FellBack: true, Reason: reason}, rungDTree
		} else {
			reason = fmt.Errorf("dtree rung: %w (after: %v)", err, reason)
		}
	}
	return selector.FallbackPrediction(reason), rungCSR
}

// cnnOut carries one CNN inference result across the timeout boundary.
type cnnOut struct {
	pred selector.Prediction
	err  error
}

// cnnOnce runs one CNN inference bounded by PredictTimeout (within the
// request budget). The inference runs in its own goroutine so a wedged
// or slow forward pass is abandoned at the deadline instead of
// wedging the pool worker; the goroutine contains its own panics
// (including injected ones) and drops its late result into a buffered
// channel.
func (s *Server) cnnOnce(ctx context.Context, sel *selector.Selector, pat *sparse.Pattern) (selector.Prediction, error) {
	tctx, cancel := context.WithTimeout(ctx, s.cfg.PredictTimeout)
	defer cancel()

	ch := make(chan cnnOut, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- cnnOut{err: fmt.Errorf("serve: cnn predict panic: %v", r)}
			}
		}()
		// Chaos hooks: a slow model sleeps here (bounded by tctx), a
		// poison input panics here (contained just above).
		if err := faultinject.InjectCtx(tctx, faultinject.PointPredictSlow); err != nil {
			ch <- cnnOut{err: fmt.Errorf("serve: cnn predict: %w", err)}
			return
		}
		if err := faultinject.Inject(faultinject.PointPredictPanic); err != nil {
			ch <- cnnOut{err: fmt.Errorf("serve: cnn predict: %w", err)}
			return
		}
		fwdStart := time.Now()
		f, probs, err := sel.PredictPattern(pat)
		obs.TraceFrom(ctx).ObserveSpan("forward", fwdStart)
		if err != nil {
			ch <- cnnOut{err: err}
			return
		}
		ch <- cnnOut{pred: selector.Prediction{Format: f, Probs: probs}}
	}()

	select {
	case out := <-ch:
		return out.pred, out.err
	case <-tctx.Done():
		return selector.Prediction{}, fmt.Errorf("serve: cnn predict: %w", tctx.Err())
	}
}

var rungLabels = newLabelTable(func(rung string) string {
	return fmt.Sprintf("rung=%q", rung)
}, rungCNN, rungDTree, rungCSR)

// rungLabel renders the label set for the serve_rung_total counter.
func rungLabel(rung string) string {
	return rungLabels.label(rung)
}

// cnnFailureLabel classifies a CNN-rung failure into a bounded label
// set for the serve_cnn_failures_total counter.
func cnnFailureLabel(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return `cause="timeout"`
	case errors.Is(err, selector.ErrNoModel):
		return `cause="no_model"`
	case errors.Is(err, selector.ErrBadOutput):
		return `cause="bad_output"`
	default:
		return `cause="panic_or_other"`
	}
}
