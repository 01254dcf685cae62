package serve

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/faultinject"
	"repro/internal/selector"
	"repro/internal/sparse"
)

// modelStamp identifies a model file revision for the mtime watcher.
type modelStamp struct {
	modTime time.Time
	size    int64
}

func stampOf(path string) (modelStamp, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return modelStamp{}, err
	}
	return modelStamp{modTime: fi.ModTime(), size: fi.Size()}, nil
}

// Reload re-reads cfg.ModelPath, validates it through the checksummed
// envelope loader, and — only on success — swaps it in atomically,
// bumps the model generation and resets the prediction cache. A file
// that fails validation (truncated, corrupt, wrong kind/version, or a
// selector that cannot predict) leaves the live model untouched, so a
// bad deploy artifact degrades to a logged error, never to downtime.
//
// Reload is safe to call concurrently (SIGHUP and the mtime watcher
// may race); loads are serialised and the generation counter moves
// once per successful swap.
func (s *Server) Reload() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()

	stamp, statErr := stampOf(s.cfg.ModelPath)

	sel, err := selector.LoadFile(s.cfg.ModelPath)
	if err == nil {
		// Validation beyond decode: the selector must actually answer on
		// a probe matrix before it is allowed to take traffic. The chaos
		// suite injects a rejection here to model an artifact that decays
		// after validation.
		if perr := probe(sel); perr != nil {
			err = perr
		} else if ierr := faultinject.Inject(faultinject.PointReloadCorrupt); ierr != nil {
			err = fmt.Errorf("serve: model reload: %w", ierr)
		}
	}
	if err != nil {
		s.met.reloadFails.Inc()
		// A rejected reload is evidence against the CNN rung: the
		// artifact on disk is bad, so consecutive rejections walk the
		// breaker toward the decision-tree rung.
		s.breaker.Failure()
		s.logf("serve: model reload rejected: %v", err)
		return err
	}

	s.model.Store(sel)
	gen := s.gen.Add(1)
	s.met.modelGen.SetInt(gen)
	s.cache.Reset()
	s.met.cacheSize.Set(0)
	if statErr == nil {
		s.lastStamp = stamp
	}
	// A validated model is direct evidence the CNN rung is healthy
	// again: close the breaker instead of waiting out its cooldown.
	s.breaker.Reset()
	if gen > 1 {
		s.met.reloads.Inc()
		s.logf("serve: model reloaded from %s (generation %d)", s.cfg.ModelPath, gen)
	}
	return nil
}

// probe runs one prediction through a freshly loaded selector to catch
// models that decode but cannot infer (shape mismatches, poisoned
// weights producing non-finite output).
func probe(sel *selector.Selector) error {
	m := sparse.MustCOO(4, 4, []sparse.Entry{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1},
		{Row: 2, Col: 3, Val: 1}, {Row: 3, Col: 2, Val: 1},
	})
	if _, _, err := sel.Predict(m); err != nil {
		return fmt.Errorf("serve: loaded model failed probe prediction: %w", err)
	}
	return nil
}

// WatchModel polls the model file and hot-reloads when its mtime or
// size changes, until ctx is cancelled. It complements SIGHUP (which
// cmd/serve wires to Reload): the signal is for operators, the watch
// is for deploy pipelines that just replace the file. Failed reloads
// are logged and retried on the next change; the stamp is only
// advanced on success, so a transient half-visible write (non-atomic
// copy) is retried until the artifact validates.
func (s *Server) WatchModel(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			stamp, err := stampOf(s.cfg.ModelPath)
			if err != nil {
				continue // file temporarily missing mid-replace; retry
			}
			s.reloadMu.Lock()
			changed := stamp != s.lastStamp
			s.reloadMu.Unlock()
			if changed {
				s.Reload()
			}
		}
	}
}
