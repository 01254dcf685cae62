package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule returns due times, as offsets from the stage start, of
// a Poisson process at rate per second over the window: exponential
// gaps drawn from the seed, so the same seed offers the same arrivals.
func poissonSchedule(seed int64, rate float64, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= window {
			return due
		}
		due = append(due, at)
	}
}

// arrival is the outcome of one scheduled request.
type arrival struct {
	// sinceDue is completion minus due time: it includes the wait an
	// arrival spent behind busy connections, which is what a stall costs
	// the requests queued behind it.
	sinceDue time.Duration
	// sinceSend is completion minus the moment the request was actually
	// sent (what a closed-loop client would have reported).
	sinceSend time.Duration
	// genLate is how late the generator itself ran: the sleep overshoot
	// past the due time of an arrival that found a connection free. An
	// arrival that found every connection busy kept its due time and
	// was not late on the generator's account.
	genLate time.Duration
	ok      bool
}

// runOpenLoop offers the schedule against an absolute clock with at
// most conns requests in flight: each connection takes the next
// arrival in order, sleeps until it is due if it is not yet, and sends.
// The schedule never slows down when the server does; a late arrival
// waits for a connection and is still timed from when it was due.
// send reports whether arrival i was answered correctly.
func runOpenLoop(due []time.Duration, conns int, send func(i int) bool) []arrival {
	out := make([]arrival, len(due))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				dueAt := start.Add(due[i])
				var late time.Duration
				if gap := time.Until(dueAt); gap > 0 {
					time.Sleep(gap)
					late = time.Since(dueAt)
				}
				sent := time.Now()
				ok := send(i)
				done := time.Now()
				out[i] = arrival{sinceDue: done.Sub(dueAt), sinceSend: done.Sub(sent), genLate: late, ok: ok}
			}
		}()
	}
	wg.Wait()
	return out
}
