package sim

import "encoding/binary"

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64). Every stochastic element of the simulation draws from an
// explicitly seeded RNG so experiments replay bit-identically; the stdlib
// global generator is never used.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// gamma is SplitMix64's state increment: the k-th draw after seeding
// depends only on seed + k·gamma.
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bytes fills p with random bytes: each Uint64 supplies the next eight,
// least significant byte first, and a tail shorter than eight bytes takes
// the low bytes of one more draw.
func (r *RNG) Bytes(p []byte) {
	for len(p) >= 8 {
		binary.LittleEndian.PutUint64(p, r.Uint64())
		p = p[8:]
	}
	if len(p) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], r.Uint64())
		copy(p, tail[:])
	}
}

// Skip advances r past n draws in constant time.
func (r *RNG) Skip(n uint64) { r.state += n * gamma }

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
