// Package sim provides the discrete-time simulation kernel the Dike
// reproduction runs on: a millisecond-resolution clock, a deterministic
// random source, and the tick/quantum loop that drives the machine model
// and invokes schedulers.
//
// Everything in this package is deterministic given a seed, which is what
// makes the experiment harness reproducible: the same workload, scheduler
// and seed always produce bit-identical traces.
package sim

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64 core with a xorshift* output stage). We avoid math/rand so
// that (a) streams can be forked cheaply per thread/benchmark without
// global lock contention and (b) numeric output is pinned independent of
// Go release-to-release changes in math/rand.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Seed 0 is remapped to a
// fixed non-zero constant so the stream is never degenerate.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Fork derives an independent child stream. Children of distinct labels
// are decorrelated from each other and from the parent's future output.
func (r *RNG) Fork(label uint64) *RNG {
	// Mix the label through one splitmix round of the current state
	// without consuming parent output for labels' independence.
	z := r.state + (label+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return NewRNG(z ^ (z >> 31))
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a pseudo-random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes xs in place.
func (r *RNG) Shuffle(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
