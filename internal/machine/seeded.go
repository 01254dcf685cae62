package machine

import "math/rand"

// seededSource is rand.NewSource(seed) without the seeding loop, for a
// caller that draws a handful of numbers per seed: the labeler draws one
// normal per format, and seeding math/rand's 607-word state (some 1,900
// generator steps) costs fifty times the rest of a label.
//
// The math is that of $GOROOT/src/math/rand/rng.go. Seeding reduces the
// seed to x0 in [1, 2^31−1) and fills word i of the state with three
// consecutive states of the Park–Miller generator x_{n+1} = 48271·x_n
// mod (2^31−1), XORed with rngCooked[i]:
//
//	vec[i] = x_{3i+21}<<40 ^ x_{3i+22}<<20 ^ x_{3i+23} ^ rngCooked[i]
//
// and draw k (1-based) returns vec[334−k] + vec[607−k], which no earlier
// draw has written while k ≤ 273. Since x_n = 48271^n·x0, each of the
// three states is one multiplication by a precomputed power, so the
// first fastDraws draws read only the two words they need. Past those
// (the ziggurat's rare rejection) the source hands over to a real
// rand.NewSource(seed) advanced to the same point. The output is
// math/rand's stream bit for bit: math/rand's seeded streams are covered
// by the Go 1 compatibility promise, and the tests compare the two over
// 100k seeds.
type seededSource struct {
	seed int64         // as given, for the hand-over
	x0   uint64        // seed reduced as rngSource.Seed reduces it
	n    int           // draws so far
	rest rand.Source64 // rand.NewSource(seed) advanced n draws, made on draw fastDraws+1
}

const (
	fastDraws = 4
	lcgMod    = 1<<31 - 1 // the seeding generator's modulus
	lcgMul    = 48271     // and its multiplier
	rngLen    = 607       // math/rand's state length
	rngTap    = 273       // and its tap distance
)

// cookedWords[k-1] holds the rngCooked words draw k reads: indices
// rngLen−rngTap−k and rngLen−k of the table in
// $GOROOT/src/math/rand/rng.go.
var cookedWords = [fastDraws][2]int64{
	{-4633371852008891965, 4152330101494654406}, // 333, 606
	{4287360518296753003, 9103922860780351547},  // 332, 605
	{-1072987336855386047, 8382142935188824023}, // 331, 604
	{220828013409515943, -2171292963361310674},  // 330, 603
}

// lcgPowers[k-1][w][j] is 48271^(3i+21+j) mod (2^31−1) for the word
// i = rngLen−rngTap−k (w = 0) or rngLen−k (w = 1) draw k reads: the
// seeding loop steps the generator 20 times before word 0 and three
// times per word, the first of them before the word's high bits.
var lcgPowers = func() (p [fastDraws][2][3]uint64) {
	for k := 1; k <= fastDraws; k++ {
		for w, i := range [2]int{rngLen - rngTap - k, rngLen - k} {
			for j := range p[k-1][w] {
				p[k-1][w][j] = lcgPow(3*i + 21 + j)
			}
		}
	}
	return p
}()

// lcgPow returns 48271^n mod (2^31−1).
func lcgPow(n int) uint64 {
	r, b := uint64(1), uint64(lcgMul)
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			r = r * b % lcgMod
		}
		b = b * b % lcgMod
	}
	return r
}

// Seed resets the source to the start of rand.NewSource(seed)'s stream.
func (s *seededSource) Seed(seed int64) {
	x := seed % lcgMod
	if x < 0 {
		x += lcgMod
	}
	if x == 0 {
		x = 89482311
	}
	*s = seededSource{seed: seed, x0: uint64(x)}
}

// Uint64 returns the next draw of rand.NewSource(seed)'s stream.
func (s *seededSource) Uint64() uint64 {
	if s.n < fastDraws {
		k := s.n
		s.n++
		return s.word(lcgPowers[k][0], cookedWords[k][0]) + s.word(lcgPowers[k][1], cookedWords[k][1])
	}
	if s.rest == nil {
		s.rest = rand.NewSource(s.seed).(rand.Source64)
		for range s.n {
			s.rest.Uint64()
		}
	}
	return s.rest.Uint64()
}

// Int63 is rand.Source's view of Uint64, as in math/rand.
func (s *seededSource) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// word is one state word: the three seeding states at the distances
// pow gives from x0, XORed with its cooked word.
func (s *seededSource) word(pow [3]uint64, cooked int64) uint64 {
	return pow[0]*s.x0%lcgMod<<40 ^ pow[1]*s.x0%lcgMod<<20 ^ pow[2]*s.x0%lcgMod ^ uint64(cooked)
}
