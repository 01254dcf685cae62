package sparse

// Fingerprint returns a stable 64-bit hash of a matrix's shape and
// sparsity pattern — the identity a format selector cares about. It is
// a function of the Pattern and so cannot see a value: every input
// representation the CNN consumes (binary occupancy, block density,
// diagonal-distance histograms) is computed from nonzero positions
// only, so two matrices with the same pattern but different values
// always get the same prediction. That makes the fingerprint a sound
// cache key for prediction services.
//
// The hash is order-insensitive: each (row,col) coordinate is mixed
// independently and the per-entry hashes are combined with commutative
// reductions (sum and xor), so a reader that meets the positions in any
// order (see PatternHash) fingerprints them identically. It is stable
// across processes (no per-run seeding) so caches can be warmed
// offline.
//
// A 64-bit pattern hash can collide in principle; at the cache sizes a
// serving tier uses (≤ millions of entries) the birthday-bound
// collision odds are below 1e-6, which is acceptable for a cache whose
// worst case is returning the prediction of a structurally identical
// twin.
func (p *Pattern) Fingerprint() uint64 {
	var h PatternHash
	for k := range p.Rows {
		h = h.Add(p.Rows[k], p.Cols[k])
	}
	return h.Sum(p.rows, p.cols)
}

// Fingerprint is m's Pattern.Fingerprint, 0 for a nil matrix.
func Fingerprint(m *COO) uint64 {
	if m == nil {
		return 0
	}
	return m.Pattern.Fingerprint()
}

// PatternHash is Fingerprint computed one coordinate at a time, for a
// reader that meets the positions before (or instead of) building a
// Pattern. Add every stored position exactly once, in any order, then
// Sum with the dimensions: the result is Fingerprint of the canonical
// pattern with those positions. The zero value is ready to use.
type PatternHash struct {
	sum, xor uint64
	n        uint64
}

// Add returns the hash with one more (row, col) position mixed in. (By
// value, so that a loop over a local hash runs in registers.)
func (h PatternHash) Add(row, col int32) PatternHash {
	x := mix64(uint64(uint32(row))<<32 | uint64(uint32(col)))
	return PatternHash{sum: h.sum + x, xor: h.xor ^ x, n: h.n + 1}
}

// Sum folds the shape and the number of positions added over the
// commutative reductions and returns the fingerprint.
func (h PatternHash) Sum(rows, cols int) uint64 {
	x := mix64(uint64(rows)*0x9E3779B97F4A7C15 ^ uint64(cols))
	x = mix64(x ^ h.n)
	x = mix64(x ^ h.sum)
	x = mix64(x ^ h.xor)
	return x
}

// mix64 is the SplitMix64 finaliser: a cheap bijective mixer with good
// avalanche behaviour, so nearby coordinates land far apart.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}
