package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/robust"
)

// The SLO-driven overload-control plane (enabled by Config.SLOTargetP99).
//
// The fixed bounded queue it replaces had the classic failure mode:
// under sustained overload the queue fills with requests that will
// expire before service, every admitted request times out late instead
// of shedding early, and the CNN rung burns CPU on answers nobody is
// still waiting for. This plane closes three loops instead:
//
//   - admission: a robust.Limiter adapts the number of jobs allowed in
//     the system (queued + executing) to observed job latency against
//     the SLO target — the queue is exactly as deep as the SLO can
//     afford, not a compile-time guess.
//   - deadline awareness: a request whose remaining budget cannot cover
//     the expected queue wait plus service time is shed at admission
//     (429 + Retry-After) rather than admitted to time out late; jobs
//     that expire anyway are evicted unexecuted at dequeue.
//   - brownout: sustained SLO burn or shedding proactively steps the
//     ladder cnn→dtree before the breaker ever trips — the decision
//     gets cheaper exactly when cycles are the scarce resource — and
//     steps back once offered load fits CNN capacity again.
//
// Everything here is advisory capacity control, never correctness: with
// SLOTargetP99 zero the server behaves exactly as before (fixed queue,
// static Retry-After).

// errDeadlineTooTight sheds a request at admission because its
// remaining deadline budget cannot cover the expected queue wait.
var errDeadlineTooTight = errors.New("serve: deadline cannot cover expected queue wait")

// errExpired evicts a queued job whose context died (deadline spent or
// client hung up) before a worker picked it up.
var errExpired = errors.New("serve: request expired in queue")

// Brownout controller tuning. Intervals are evaluate() cadence; the
// engage/recover streaks are the hysteresis that keeps a borderline
// load from flapping the rung.
const (
	brownoutInterval = 500 * time.Millisecond
	brownoutEngage   = 2 // consecutive hot intervals before engaging
	brownoutRecover  = 4 // consecutive cool intervals before recovery
)

// admission is the per-server overload-control state.
type admission struct {
	target  time.Duration // the configured SLO (p99) target
	workers int           // configured worker pool size
	lim     *robust.Limiter
	tracker *obs.SLOTracker

	onBrownout func(engaged bool) // transition hook (metrics + log)

	mu       sync.Mutex
	winStart time.Time
	// Interval accumulators for the brownout controller.
	admits, sheds         int
	completions, overSLO  int
	drain                 float64 // jobs/sec completion rate (EWMA)
	cnnEWMA               float64 // seconds per CNN forward (EWMA; stale during brownout by design)
	engaged               bool
	hotStreak, coolStreak int

	now func() time.Time // injectable clock (tests)
}

func newAdmission(cfg Config) *admission {
	a := &admission{
		target:  cfg.SLOTargetP99,
		workers: cfg.Workers,
		now:     time.Now,
	}
	// The limiter bounds jobs in the system. Its latency target is half
	// the p99 SLO: the limit tracks *mean* job latency, and holding the
	// mean at half the target is what leaves tail room for the p99 to
	// land inside it. Ceiling is the legacy fixed queue depth, so the
	// adaptive plane can never admit more than the old plane did.
	a.lim = robust.NewLimiter(robust.LimiterConfig{
		Target:    cfg.SLOTargetP99 / 2,
		Floor:     2,
		Ceiling:   cfg.QueueDepth,
		Initial:   cfg.QueueDepth,
		Window:    brownoutInterval / 2,
		IdleReset: 30 * time.Second,
	})
	a.tracker = obs.NewSLOTracker(obs.SLOConfig{
		Target:  cfg.SLOTargetP99,
		Window:  5 * time.Second,
		Buckets: 10,
	})
	a.winStart = a.now()
	return a
}

// admit decides whether one prediction job may enter the system. nil
// admits (the caller must pair it with finish via the job's release);
// errOverloaded and errDeadlineTooTight shed.
func (a *admission) admit(ctx context.Context) error {
	if !a.lim.Acquire() {
		a.shed()
		return errOverloaded
	}
	// Deadline-aware enqueue: expected time through the system is the
	// backlog (this job included) over the drain rate. A request that
	// cannot finish inside its own deadline is refused while it is still
	// cheap to refuse.
	if dl, ok := ctx.Deadline(); ok {
		if wait := a.expectedWait(); wait > 0 && time.Until(dl) < wait {
			a.lim.Release(0, false)
			a.shed()
			return errDeadlineTooTight
		}
	}
	a.mu.Lock()
	a.admits++
	a.evaluateLocked()
	a.mu.Unlock()
	return nil
}

// finish records one admitted job leaving the system: latency is
// enqueue-to-answer, ok means it produced an answer (sheds, evictions
// and shutdowns pass false).
func (a *admission) finish(latency time.Duration, ok bool) {
	a.lim.Release(latency, ok)
	a.tracker.Observe(latency, ok)
	a.mu.Lock()
	a.completions++
	if !ok || latency > a.target {
		a.overSLO++
	}
	a.evaluateLocked()
	a.mu.Unlock()
}

// shed records one refused request (admission or deadline) for the
// burn and brownout accounting.
func (a *admission) shed() {
	a.tracker.Observe(0, false)
	a.mu.Lock()
	a.sheds++
	a.evaluateLocked()
	a.mu.Unlock()
}

// noteCNN feeds the CNN-rung service-time estimate (seconds per
// forward). It deliberately goes stale during brownout — it remembers
// what CNN work cost, which is what recovery has to afford.
func (a *admission) noteCNN(sec float64) {
	a.mu.Lock()
	if a.cnnEWMA == 0 {
		a.cnnEWMA = sec
	} else {
		a.cnnEWMA = 0.8*a.cnnEWMA + 0.2*sec
	}
	a.mu.Unlock()
}

// expectedWait estimates time-through-system for a request admitted
// now: the jobs already in the system plus this one, over the drain
// rate. Zero when the system is empty or the estimate has no data —
// the check must fail open, both because an empty system has nothing
// to wait behind and because admitting is the only way a stale drain
// estimate ever heals. (An earlier version added a whole-latency EWMA
// here; after a collapse it sat above every client deadline and, with
// nothing admitted, nothing ever refreshed it — the server wedged into
// shedding 100% of deadline-carrying traffic forever.)
func (a *admission) expectedWait() time.Duration {
	// The caller holds its own limiter slot, so InFlight already counts
	// the candidate: <= 1 means it is alone in the system.
	backlog := float64(a.lim.InFlight())
	if backlog <= 1 {
		return 0
	}
	a.mu.Lock()
	drain := a.drain
	a.mu.Unlock()
	if drain <= 0 {
		return 0
	}
	return time.Duration(backlog / drain * float64(time.Second))
}

// retryAfterSeconds derives Retry-After from the current drain rate:
// how long until the present backlog has drained. Clamped to [1, 10]
// so a cold estimate neither hammers nor strands clients.
func (a *admission) retryAfterSeconds() int {
	backlog := float64(a.lim.InFlight())
	a.mu.Lock()
	drain := a.drain
	a.mu.Unlock()
	sec := 1
	if drain > 0 {
		sec = int(math.Ceil(backlog / drain))
	}
	if sec < 1 {
		sec = 1
	}
	if sec > 10 {
		sec = 10
	}
	return sec
}

// brownedOut reports whether the ladder should answer from the dtree
// rung for capacity (not health) reasons.
func (a *admission) brownedOut() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.evaluateLocked()
	return a.engaged
}

// evaluateLocked closes the current brownout interval when due and
// moves the engaged state. Caller holds a.mu.
func (a *admission) evaluateLocked() {
	t := a.now()
	elapsed := t.Sub(a.winStart)
	if elapsed < brownoutInterval {
		return
	}
	sec := elapsed.Seconds()

	// Drain rate: EWMA of completions/sec. Only a completion or a genuine
	// stall (jobs in the system, none finishing) moves it — a shed-only
	// interval says nothing about how fast the system drains, and letting
	// it decay the estimate is the other half of the shed death-spiral
	// (sheds → drain decays → expected wait grows → more sheds).
	inst := float64(a.completions) / sec
	switch {
	case a.completions > 0:
		if a.drain == 0 {
			a.drain = inst
		} else {
			a.drain = 0.5*a.drain + 0.5*inst
		}
	case a.lim.InFlight() > 0:
		a.drain *= 0.5
	}

	offered := float64(a.admits+a.sheds) / sec
	shedFrac := 0.0
	if n := a.admits + a.sheds; n > 0 {
		shedFrac = float64(a.sheds) / float64(n)
	}
	overFrac := 0.0
	if a.completions > 0 {
		overFrac = float64(a.overSLO) / float64(a.completions)
	}
	// CNN capacity in jobs/sec, from the (possibly stale) forward-pass
	// estimate and the workers the limiter lets run at once.
	cnnCap := math.Inf(1)
	if a.cnnEWMA > 0 {
		cnnCap = float64(min(a.workers, a.lim.Limit())) / a.cnnEWMA
	}

	// Hot: the SLO is burning (sheds or blown latencies) or offered
	// load visibly exceeds what the CNN rung can serve. Cool: quiet on
	// every axis AND the offered load would fit the CNN again.
	hot := shedFrac > 0.10 || overFrac > 0.50 || offered > 1.5*cnnCap
	cool := shedFrac < 0.05 && overFrac < 0.25 && (math.IsInf(cnnCap, 1) || offered < 0.7*cnnCap)

	switch {
	case hot:
		a.hotStreak++
		a.coolStreak = 0
	case cool:
		a.coolStreak++
		a.hotStreak = 0
	default:
		a.hotStreak, a.coolStreak = 0, 0
	}
	if !a.engaged && a.hotStreak >= brownoutEngage {
		a.engaged = true
		a.hotStreak = 0
		if a.onBrownout != nil {
			a.onBrownout(true)
		}
	} else if a.engaged && a.coolStreak >= brownoutRecover {
		a.engaged = false
		a.coolStreak = 0
		if a.onBrownout != nil {
			a.onBrownout(false)
		}
	}

	a.winStart = t
	a.admits, a.sheds, a.completions, a.overSLO = 0, 0, 0, 0
}
