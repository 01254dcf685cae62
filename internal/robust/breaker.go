package robust

import (
	"sync"
	"time"
)

// BreakerState is the circuit breaker's position.
type BreakerState int32

const (
	// BreakerClosed: the protected path is healthy and taking traffic.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the path failed Threshold times in a row and is
	// short-circuited until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: cooldown elapsed; one probe is allowed through
	// to test recovery while everyone else stays short-circuited.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a consecutive-failure circuit breaker for a degradable
// dependency (in this repo: the CNN rung of the serving ladder, and one
// per replica in the cluster router). It is deliberately simple —
// counts, a cooldown clock and a bounded-probe half-open state —
// because its failure modes must be easier to reason about than the
// failures it guards against.
//
// All methods are safe for concurrent use.
type Breaker struct {
	mu          sync.Mutex
	threshold   int
	cooldown    time.Duration
	probesNeed  int // consecutive half-open successes required to close
	state       BreakerState
	consecutive int
	probeStreak int       // successful half-open probes so far
	probeOut    bool      // a half-open probe is outstanding
	since       time.Time // state entry time (open: for cooldown; half-open: probe age)
	now         func() time.Time

	// OnTransition, when set (before first use), observes every state
	// change; it is called with the breaker's lock held and must not
	// call back into the breaker.
	OnTransition func(from, to BreakerState)
}

// NewBreaker builds a closed breaker that opens after threshold
// consecutive failures (minimum 1) and probes again after cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = 10 * time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, probesNeed: 1, now: time.Now}
}

// HalfOpenProbes requires n consecutive successful half-open probes
// before the breaker closes (default 1). Single-probe recovery is right
// for an in-process dependency, but too flappy for a network peer — one
// lucky response through a sick replica would restore full traffic —
// so routers ask for several. A failure at any point during the streak
// re-opens the breaker and the count starts over. It returns the
// breaker for chaining at construction; changing n while traffic is
// flowing is safe (the next half-open episode uses the new value).
func (b *Breaker) HalfOpenProbes(n int) *Breaker {
	if n < 1 {
		n = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probesNeed = n
	return b
}

// transition moves the state and notifies. Callers hold b.mu.
func (b *Breaker) transition(to BreakerState) {
	if b.state == to {
		return
	}
	from := b.state
	b.state = to
	b.since = b.now()
	// The probe streak is per half-open episode; entering any state
	// restarts it and leaving half-open clears the outstanding probe.
	b.probeStreak = 0
	if to != BreakerHalfOpen {
		b.probeOut = false
	}
	if b.OnTransition != nil {
		b.OnTransition(from, to)
	}
}

// Consecutive returns the current consecutive-failure streak.
func (b *Breaker) Consecutive() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.consecutive
}

// Allow reports whether the protected path may be tried now. In the
// open state it flips to half-open once the cooldown has elapsed and
// admits the caller as the probe; in the half-open state it admits one
// probe at a time. A probe that never reports back stops blocking
// after another cooldown period, so an abandoned probe cannot wedge
// the breaker half-open forever.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.since) >= b.cooldown {
			b.transition(BreakerHalfOpen)
			b.probeOut = true
			return true
		}
		return false
	default: // half-open: one probe outstanding at a time
		if !b.probeOut {
			b.probeOut = true
			b.since = b.now()
			return true
		}
		if b.now().Sub(b.since) >= b.cooldown {
			b.since = b.now() // re-admit: the previous probe was abandoned
			return true
		}
		return false
	}
}

// Success reports a healthy answer from the protected path: it clears
// the failure streak of a closed breaker and advances the probe streak
// of a half-open one, closing it once HalfOpenProbes consecutive
// probes have succeeded (the next probe is admitted immediately, not
// after another cooldown). Success while open is ignored (a stale
// answer from before the trip).
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.consecutive = 0
	case BreakerHalfOpen:
		b.probeOut = false
		b.probeStreak++
		if b.probeStreak >= b.probesNeed {
			b.consecutive = 0
			b.transition(BreakerClosed)
		}
	}
}

// Failure reports a failed try: it re-opens a half-open breaker
// immediately (restarting the probe streak) and trips a closed one
// when the streak reaches the threshold.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.consecutive++
		if b.consecutive >= b.threshold {
			b.transition(BreakerOpen)
		}
	case BreakerHalfOpen:
		b.probeOut = false
		b.transition(BreakerOpen)
	}
}

// Reset force-closes the breaker and clears the streak — for events
// that re-establish health out of band, such as a validated model
// reload.
func (b *Breaker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive = 0
	b.transition(BreakerClosed)
}

// State returns the current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// setClock injects a fake clock for tests.
func (b *Breaker) setClock(now func() time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.now = now
	b.since = now()
}
