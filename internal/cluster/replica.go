package cluster

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/robust"
)

// Replica health states, exported through the
// router_replica_state{replica} gauge.
const (
	stateHealthy  = 0 // breaker admits traffic, replica reports rung=cnn
	stateDegraded = 1 // serving, but on a degraded rung or probing recovery
	stateDown     = 2 // breaker open: not in rotation until probes recover it
)

// Replica is one backend server: its identity, its circuit breaker
// (fed by both active readyz probes and passive per-request outcomes)
// and its last-reported ladder rung.
type Replica struct {
	url  string // base URL, no trailing slash
	seed uint64 // rendezvous seed, derived from url

	breaker *robust.Breaker
	rung    atomic.Pointer[string] // last rung parsed from /readyz ("" = never probed)
}

func newReplica(url string, threshold int, cooldown time.Duration, halfOpenProbes int) *Replica {
	r := &Replica{url: url, seed: urlSeed(url)}
	r.breaker = robust.NewBreaker(threshold, cooldown).HalfOpenProbes(halfOpenProbes)
	empty := ""
	r.rung.Store(&empty)
	return r
}

// URL returns the replica's base URL.
func (r *Replica) URL() string { return r.url }

// Rung returns the last ladder rung the replica reported ("" before the
// first successful probe).
func (r *Replica) Rung() string { return *r.rung.Load() }

func (r *Replica) setRung(rung string) { r.rung.Store(&rung) }

// state derives the exported health state from breaker state and rung.
func (r *Replica) state() int {
	switch r.breaker.State() {
	case robust.BreakerOpen:
		return stateDown
	case robust.BreakerHalfOpen:
		return stateDegraded
	}
	if rung := r.Rung(); rung != "" && rung != "cnn" {
		return stateDegraded
	}
	return stateHealthy
}

// replicaLabel renders the per-replica label set.
func replicaLabel(url string) string { return fmt.Sprintf("replica=%q", url) }
