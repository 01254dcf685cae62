// Package cluster is the fault-tolerant serving tier above
// internal/serve: a thin HTTP router that fronts a static set of
// replica servers, health-checks them actively (readyz probes) and
// passively (response codes), trips one circuit breaker per replica,
// retries one attempt at a time with jittered exponential backoff
// across the healthy set, and shards the replicas' prediction caches by
// rendezvous-hashing each request's sparsity fingerprint.
//
// The design goal mirrors the in-process degradation ladder one level
// up: a dead, sick or slow replica costs the cluster some capacity and
// some cache locality, never availability — as long as one replica
// stands, clients get answers.
package cluster

// Rendezvous (highest-random-weight) hashing maps a sparsity
// fingerprint to its shard-owning replica. Unlike mod-N, rendezvous
// ownership is stable under membership churn: when a replica dies, only
// the fingerprints it owned move (to their second-ranked replica), and
// when it returns they move back — exactly the behaviour the cache
// wants. With a handful of replicas the O(N) score scan is free.

// mix64 is the SplitMix64 finalizer: a cheap, well-distributed 64-bit
// bijection used to turn (fingerprint, replica seed) into a rendezvous
// score.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// urlSeed hashes a replica's base URL (FNV-1a) into its stable
// rendezvous seed.
func urlSeed(url string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(url); i++ {
		h ^= uint64(url[i])
		h *= prime64
	}
	return h
}

// score is replica rep's rendezvous weight for fingerprint fp.
func score(fp, seed uint64) uint64 { return mix64(fp ^ seed) }

// ring is the static membership with rendezvous ranking.
type ring struct {
	replicas []*Replica
}

// rank returns the replicas ordered by descending rendezvous score for
// fp: index 0 is the shard owner, index 1 the successor that re-owns
// the shard if the owner drops out, and so on. The full order doubles
// as the router's failover sequence, so retries spread deterministically
// instead of thundering onto one backup.
func (rg *ring) rank(fp uint64) []*Replica {
	out := make([]*Replica, len(rg.replicas))
	copy(out, rg.replicas)
	// Insertion sort: N is single-digit.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && score(fp, out[j].seed) > score(fp, out[j-1].seed); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
