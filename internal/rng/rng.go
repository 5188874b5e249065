// Package rng is a rand.Source64 that reproduces math/rand's seeded source
// bit for bit but seeds in O(1).
//
// math/rand's source is a lagged-Fibonacci generator over a 607-word
// register. Its Seed fills the whole register by stepping a Park–Miller LCG
// (x ↦ 48271·x mod 2³¹−1) 1,841 times, which costs about 12 µs — far more
// than the handful to few hundred draws the simulator then takes from each
// per-index stream.
// Step k of that LCG is seed·48271ᵏ mod 2³¹−1, so with a table of powers any
// register entry can be computed directly. Source.Seed therefore stores only
// the normalized seed, and each register entry is computed the first time a
// draw reads it.
//
// The lazy-fill invariant: draw n after a Seed (n counted from 0) reads feed
// entry 333−n and tap entry 606−n. Feed entries are read before any write
// for n < 334; tap entries for n < 273, after which the tap reaches entries
// the feed has already overwritten. So the first 334 draws compute what they
// read, and from then on every entry has been materialized and Uint64 is
// math/rand's plain lagged-Fibonacci step.
//
// The equivalence contract: rand.New(rng.New(s)) yields exactly the values
// rand.New(rand.NewSource(s)) does, for every seed and every mix of Rand
// methods and reseeds. math/rand's v1 seeded stream is frozen by Go's
// compatibility promise; the package tests and FuzzSourceMatchesMathRand pin
// the equivalence against the installed toolchain.
package rng

//go:generate go run gen_cooked.go

const (
	rngLen = 607
	rngTap = 273
	// fillDraws is the number of draws after a Seed that may read an entry
	// not yet materialized (see the package comment).
	fillDraws = rngLen - rngTap

	lcgMod  = 1<<31 - 1 // Park–Miller modulus, a Mersenne prime
	lcgMult = 48271
	// lcgSkip is the number of LCG steps Seed discards before entry 0;
	// entry i is built from steps lcgSkip+1+3i .. lcgSkip+3+3i.
	lcgSkip = 20
)

// powers[i] holds 48271ᵏ mod 2³¹−1 for the three LCG steps k that
// register entry i packs.
var powers = func() (p [rngLen][3]uint64) {
	x := uint64(1)
	for k := 1; k <= lcgSkip+3*rngLen; k++ {
		x = mulMod(x, lcgMult)
		if i := k - lcgSkip - 1; i >= 0 {
			p[i/3][i%3] = x
		}
	}
	return p
}()

// mulMod returns a·b mod 2³¹−1 for a, b < 2³¹−1. The product fits in 62
// bits, and folding its high bits onto its low ones (2³¹ ≡ 1) leaves a
// value below 2·(2³¹−1), so one conditional subtraction finishes it.
func mulMod(a, b uint64) uint64 {
	p := a * b
	r := p&lcgMod + p>>31
	if r >= lcgMod {
		r -= lcgMod
	}
	return r
}

// Source is math/rand's rngSource with lazy seeding. The zero value is not
// usable; construct with New. Not safe for concurrent use.
type Source struct {
	tap, feed int
	drawn     int    // draws since Seed, counted up to fillDraws
	seed      uint64 // normalized seed in [1, 2³¹−2]
	vec       [rngLen]int64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed positions the source where math/rand's Seed(seed) would, in O(1).
func (s *Source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.tap = 0
	s.feed = rngLen - rngTap
	s.drawn = 0
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & (1<<63 - 1))
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.drawn < fillDraws {
		return s.fillStep()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// fillStep is Uint64 for the first fillDraws draws after a Seed: the feed
// entry is always read for the first time, the tap entry only while drawn <
// rngTap.
func (s *Source) fillStep() uint64 {
	t := s.vec[s.tap]
	if s.drawn < rngTap {
		t = s.entry(s.tap)
		s.vec[s.tap] = t
	}
	x := s.entry(s.feed) + t
	s.vec[s.feed] = x
	s.drawn++
	return uint64(x)
}

// entry is register entry i exactly as math/rand's Seed computes it: three
// consecutive LCG outputs packed at bit offsets 40, 20 and 0, XORed with
// the cooked table.
func (s *Source) entry(i int) int64 {
	p := &powers[i]
	u := int64(mulMod(s.seed, p[0])) << 40
	u ^= int64(mulMod(s.seed, p[1])) << 20
	u ^= int64(mulMod(s.seed, p[2]))
	return u ^ rngCooked[i]
}
