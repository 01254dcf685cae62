package serve

import (
	"context"
	"errors"
	runtimemetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/selector"
	"repro/internal/sparse"
)

// job is one prediction request in flight between handler and worker.
type job struct {
	ctx      context.Context // job context: deadline budget (detached from any single client when coalescing is on)
	cancel   context.CancelFunc
	pat      *sparse.Pattern // what is predicted, logged and mirrored; no request converts a value
	fp       uint64
	tr       *obs.Trace // request trace (nil-safe); the worker adds queue and rung spans
	enqueued time.Time  // when the handler submitted the job (queue span start)
	call     *call      // completion record, shared with coalesced duplicates

	// clientSec is the client-reported SpMV seconds riding the request
	// (0 = none), captured into the feedback log with the answer.
	clientSec float64

	// admitted marks a job holding an admission-limiter slot; released
	// guards the release so repeated completions (the worker's answer
	// and its deferred panic sweep) can never double-free it.
	admitted bool
	released atomic.Bool
}

type jobResult struct {
	pred selector.Prediction
	gen  uint64
	rung string
	err  error
}

// call is a single-flight completion record: the leader request that
// enqueued the job and every duplicate request that attached to it
// while it was in flight all wait on done. finish is idempotent: the
// first answer wins, so the worker's deferred panic sweep never
// overwrites the answer it already delivered.
type call struct {
	once sync.Once
	done chan struct{}
	res  jobResult
}

func newCall() *call { return &call{done: make(chan struct{})} }

func (c *call) finish(r jobResult) {
	c.once.Do(func() { c.res = r; close(c.done) })
}

var errShutdown = errors.New("serve: shutting down")

// finishJob completes a job's call and retires its fingerprint from the
// single-flight window, so the next request for the same pattern starts
// a fresh computation (or hits the cache the leader just filled).
func (s *Server) finishJob(j *job, res jobResult) {
	s.inflightMu.Lock()
	if s.inflightFP[j.fp] == j.call {
		delete(s.inflightFP, j.fp)
	}
	s.inflightMu.Unlock()
	j.call.finish(res)
	// Return the admission slot exactly once, feeding the limiter the
	// job's whole time-in-system (queue wait included) — the latency the
	// SLO is written against.
	if j.admitted && s.adm != nil && j.released.CompareAndSwap(false, true) {
		s.adm.finish(time.Since(j.enqueued), res.err == nil)
	}
	if j.cancel != nil {
		j.cancel()
	}
}

// runJob executes one prediction job on a pool worker. The job is
// guaranteed an answer: the degradation ladder cannot fail (the CSR
// floor is unconditional), and the deferred finish covers a panic
// escaping it (the pool contains the panic; the idempotent finish keeps
// the handler from hanging).
func (s *Server) runJob(j *job) {
	defer s.finishJob(j, jobResult{err: errShutdown})

	if s.testHookPreJob != nil {
		s.testHookPreJob()
	}
	j.tr.ObserveSpan("queue", j.enqueued)
	// Evict expired work at pickup: a job whose context died while
	// queued (deadline spent, or the client hung up) gets its terminal
	// answer now instead of a forward pass nobody is waiting for. Under
	// overload this is the difference between burning the backlog and
	// burning CPU on it.
	if j.ctx.Err() != nil {
		s.met.queueExpired.Inc()
		s.finishJob(j, jobResult{err: errExpired})
		return
	}
	sel := s.model.Load()
	gen := s.gen.Load()
	allocStart := heapAllocObjects()
	rungStart := time.Now()
	pred, rung := s.ladderPredict(j.ctx, sel, j.pat)
	liveNs := time.Since(rungStart).Nanoseconds()
	if s.adm != nil && rung == rungCNN {
		// Feed the brownout controller the CNN rung's real cost.
		s.adm.noteCNN(float64(liveNs) / 1e9)
	}
	j.tr.ObserveSpan("rung:"+rung, rungStart)
	s.met.rungs.With(rungLabel(rung)).Inc()
	if pred.FellBack {
		s.met.fallbacks.With(reasonLabel(pred.Reason)).Inc()
	} else {
		s.met.predictions.With(formatLabel(pred.Format)).Inc()
		// Only healthy CNN answers are cached: a degraded answer
		// caused by a transient condition must not be replayed from
		// cache after the condition clears.
		s.cache.Add(j.fp, pred, gen)
		s.met.cacheSize.SetInt(uint64(s.cache.Len()))
	}
	s.finishJob(j, jobResult{pred: pred, gen: gen, rung: rung})
	// The answer is delivered; capture it for the feedback log and run
	// the shadow mirror strictly after it (see shadow.go).
	s.recordFeedback(j.pat, j.fp, pred, rung, gen, false, j.clientSec)
	// Allocation pressure of the job: a process-wide heap-objects delta,
	// not a per-goroutine count — concurrent jobs and GC background work
	// inflate it, so it is a trend gauge, not an exact figure (the exact
	// figure is pinned by the benchgate allocs/op gate).
	s.met.predictAllocs.Set(float64(heapAllocObjects() - allocStart))
	if s.shouldShadow() {
		s.mirrorShadow(j.pat, pred, liveNs)
	}
}

// heapAllocObjects reads the runtime's cumulative allocated-objects
// counter; the [1]Sample array stays on the stack, so sampling itself
// allocates nothing.
func heapAllocObjects() uint64 {
	s := [1]runtimemetrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	runtimemetrics.Read(s[:])
	return s[0].Value.Uint64()
}
