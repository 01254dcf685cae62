package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/feedback"
	"repro/internal/obs"
	"repro/internal/selector"
	"repro/internal/sparse"
)

// Shadow deployment: the shepherd's candidate model rides inside the
// live server as a mirror. Sampled predict traffic is re-run through
// the shadow *after* the live answer has been delivered, so the shadow
// influences metrics and its scorecard only — never a response, never
// the cache, never the breaker. The scorecard (agreement with the live
// model, error count, forward latency) is what the promotion gate
// reads; loading a shadow goes through the same checksummed-envelope
// loader and probe prediction as a live reload, so a corrupt retrain
// artifact is rejected at the door.

// shadowState is the atomically-swapped shadow slot.
type shadowState struct {
	sel  *selector.Selector
	path string

	samples  atomic.Int64
	agree    atomic.Int64
	disagree atomic.Int64
	errs     atomic.Int64
	shadowNs atomic.Int64
	liveNs   atomic.Int64
}

// LoadShadow validates the artifact at path (checksummed envelope +
// probe prediction, exactly like a live reload) and installs it as the
// shadow model with a fresh scorecard. A rejected artifact leaves any
// current shadow untouched.
func (s *Server) LoadShadow(path string) error {
	sel, err := selector.LoadFile(path)
	if err == nil {
		if perr := probe(sel); perr != nil {
			err = perr
		}
	}
	if err != nil {
		s.met.shadowRejects.Inc()
		s.logf("serve: shadow load rejected: %v", err)
		return fmt.Errorf("serve: shadow load: %w", err)
	}
	s.shadow.Store(&shadowState{sel: sel, path: path})
	s.met.shadowLoads.Inc()
	s.met.shadowLoaded.Set(1)
	s.logf("serve: shadow model loaded from %s", path)
	return nil
}

// ClearShadow unloads the shadow model (no-op when none is loaded).
func (s *Server) ClearShadow() {
	if s.shadow.Swap(nil) != nil {
		s.met.shadowLoaded.Set(0)
		s.logf("serve: shadow model cleared")
	}
}

// ShadowScorecard snapshots the mirror's agreement/latency scorecard.
func (s *Server) ShadowScorecard() feedback.ShadowScorecard {
	st := s.shadow.Load()
	if st == nil {
		return feedback.ShadowScorecard{}
	}
	card := feedback.ShadowScorecard{
		Loaded:   true,
		Path:     st.path,
		Samples:  int(st.samples.Load()),
		Agree:    int(st.agree.Load()),
		Disagree: int(st.disagree.Load()),
		Errors:   int(st.errs.Load()),
	}
	if judged := card.Agree + card.Disagree; judged > 0 {
		card.AgreeRate = float64(card.Agree) / float64(judged)
	}
	if card.Samples > 0 {
		card.ShadowMean = time.Duration(st.shadowNs.Load() / int64(card.Samples)).Seconds()
		card.LiveMean = time.Duration(st.liveNs.Load() / int64(card.Samples)).Seconds()
	}
	return card
}

// shouldShadow reports whether this prediction falls in the mirror's
// sample (every ShadowSampleN-th request; 0 disables, 1 mirrors all).
func (s *Server) shouldShadow() bool {
	if s.cfg.ShadowSampleN <= 0 || s.shadow.Load() == nil {
		return false
	}
	return s.shadowSeq.Add(1)%uint64(s.cfg.ShadowSampleN) == 0
}

// mirrorShadow re-runs one sampled prediction through the shadow model.
// It executes on the worker after the job has been answered: the
// response is gone, so nothing here can affect it. The forward pass is
// bounded by PredictTimeout and panic-contained — a pathological shadow
// burns its budget and scores an error, nothing more.
func (s *Server) mirrorShadow(pat *sparse.Pattern, live selector.Prediction, liveNs int64) {
	st := s.shadow.Load()
	if st == nil {
		return
	}
	st.samples.Add(1)
	st.liveNs.Add(liveNs)
	s.met.shadowRequests.Inc()
	start := time.Now()
	pred, err := s.shadowOnce(st.sel, pat)
	elapsed := time.Since(start)
	st.shadowNs.Add(elapsed.Nanoseconds())
	s.met.shadowSeconds.Observe(elapsed.Seconds())
	if err != nil {
		st.errs.Add(1)
		s.met.shadowErrors.Inc()
		s.logf("serve: shadow predict failed: %v", err)
		return
	}
	// Agreement is judged on healthy live answers only: comparing
	// against a degraded (dtree/CSR) answer would score the shadow
	// against the wrong reference.
	if live.FellBack {
		return
	}
	if pred.Format == live.Format {
		st.agree.Add(1)
		s.met.shadowAgree.Inc()
	} else {
		st.disagree.Add(1)
		s.met.shadowDisagree.Inc()
	}
}

// shadowOnce runs one shadow inference with its own timeout and panic
// containment. It deliberately does not share cnnOnce: the shadow must
// not trip fault-injection points, the breaker, or request tracing —
// it is invisible to the serving path.
func (s *Server) shadowOnce(sel *selector.Selector, pat *sparse.Pattern) (selector.Prediction, error) {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.PredictTimeout)
	defer cancel()
	ch := make(chan cnnOut, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- cnnOut{err: fmt.Errorf("serve: shadow predict panic: %v", r)}
			}
		}()
		f, probs, err := sel.PredictPattern(pat)
		if err != nil {
			ch <- cnnOut{err: err}
			return
		}
		ch <- cnnOut{pred: selector.Prediction{Format: f, Probs: probs}}
	}()
	select {
	case out := <-ch:
		return out.pred, out.err
	case <-ctx.Done():
		return selector.Prediction{}, fmt.Errorf("serve: shadow predict: %w", ctx.Err())
	}
}

// AdminHandler returns the introspection surface for a separate admin
// listener: /metrics, /debug/traces, /debug/pprof, and the shadow
// control endpoints the shepherd drives (POST /shadow/load, POST
// /shadow/clear, GET /shadow/scorecard). It is never mounted on the
// traffic handler — pprof on a public port is an information leak and
// a DoS lever, and shadow control is an operator surface.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", obs.AdminHandler(obs.AdminConfig{
		Registry: s.met.reg,
		Traces:   s.traces,
		PProf:    true,
	}))
	mux.HandleFunc("/shadow/load", s.handleShadowLoad)
	mux.HandleFunc("/shadow/clear", s.handleShadowClear)
	mux.HandleFunc("/shadow/scorecard", s.handleShadowScorecard)
	return mux
}

func (s *Server) handleShadowLoad(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	var req struct {
		Path string `json:"path"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Path == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "body must be {\"path\": \"...\"}"})
		return
	}
	if err := s.LoadShadow(req.Path); err != nil {
		// 422: the request was well-formed; the artifact was not.
		writeJSON(w, http.StatusUnprocessableEntity, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, s.ShadowScorecard())
}

func (s *Server) handleShadowClear(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	s.ClearShadow()
	writeJSON(w, http.StatusOK, s.ShadowScorecard())
}

func (s *Server) handleShadowScorecard(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ShadowScorecard())
}
