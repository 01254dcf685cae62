package cluster

import (
	"sync"
)

// retryBudget is a fleet-safety token bucket for retries. Every
// successful attempt deposits Ratio tokens (capped at Burst); every
// relaunch withdraws one. Steady-state retry traffic is therefore
// bounded at ~Ratio of successful traffic — the property that keeps a
// router from amplifying a brownout into a congestion collapse: when
// replicas start shedding, the success stream (and with it the token
// stream) dries up, and the router stops multiplying each client
// request into Retries+1 attempts precisely when the fleet can least
// afford it. Burst is both the cap and the initial balance, so a cold
// router can still retry through an isolated failure.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	ratio  float64
	burst  float64
}

// newRetryBudget builds a full budget; Config.defaults makes ratio and
// burst positive.
func newRetryBudget(ratio float64, burst int) *retryBudget {
	return &retryBudget{tokens: float64(burst), ratio: ratio, burst: float64(burst)}
}

// deposit credits one successful attempt.
func (b *retryBudget) deposit() {
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

// withdraw takes one retry token; false means the budget is dry and the
// relaunch must not happen.
func (b *retryBudget) withdraw() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// balance reports the current token count (for the gauge).
func (b *retryBudget) balance() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}
