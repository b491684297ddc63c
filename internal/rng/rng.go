// Package rng provides a deterministic, splittable pseudo-random number
// generator together with the distribution samplers the FedGuard
// reproduction needs: Gaussian, categorical, Dirichlet, and permutation
// sampling.
//
// Every experiment in this repository derives all of its randomness from a
// single root seed. Client-local streams are obtained with Split, which
// produces statistically independent child generators, so results do not
// depend on the order in which goroutines run.
//
// The core generator is PCG-XSL-RR 128/64 (O'Neill, 2014), implemented on
// two 64-bit halves so it needs no math/bits 128-bit support beyond
// multiplication helpers.
package rng

import "math/bits"

// RNG is a deterministic splittable random number generator. It is NOT
// safe for concurrent use; use Split to derive one generator per
// goroutine instead of sharing.
type RNG struct {
	hi, lo uint64 // 128-bit state
	incHi  uint64 // stream selector (must be odd in low half)
	incLo  uint64

	haveGauss bool
	gauss     float64
}

// New returns a generator seeded from seed. Two generators created with
// the same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{incHi: 0x14057b7ef767814f, incLo: 0x9fb21c651e98df25 | 1}
	r.hi = 0
	r.lo = 0
	r.step()
	r.lo += seed
	r.hi += mulHi(seed, 0x9e3779b97f4a7c15)
	r.step()
	// Warm up so low-entropy seeds diverge quickly.
	for i := 0; i < 4; i++ {
		r.step()
	}
	return r
}

func mulHi(a, b uint64) uint64 {
	hi, _ := bits.Mul64(a, b)
	return hi
}

// step advances the 128-bit LCG state.
func (r *RNG) step() {
	const mulHi64 = 2549297995355413924
	const mulLo64 = 4865540595714422341
	// (hi,lo) = (hi,lo) * mul + inc, 128-bit arithmetic.
	hh, hl := bits.Mul64(r.lo, mulLo64)
	hh += r.hi*mulLo64 + r.lo*mulHi64
	lo, carry := bits.Add64(hl, r.incLo, 0)
	hi, _ := bits.Add64(hh, r.incHi, carry)
	r.hi, r.lo = hi, lo
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.step()
	// XSL-RR output function: xor the halves, rotate by the top bits.
	x := r.hi ^ r.lo
	rot := uint(r.hi >> 58)
	return bits.RotateLeft64(x, -int(rot))
}

// Split derives a statistically independent child generator. The parent
// advances, so successive Split calls return distinct children. Children
// and parent may be used concurrently with each other.
func (r *RNG) Split() *RNG {
	c := &RNG{}
	c.hi = r.Uint64()
	c.lo = r.Uint64()
	c.incHi = r.Uint64()
	c.incLo = r.Uint64() | 1 // increment must be odd
	for i := 0; i < 4; i++ {
		c.step()
	}
	return c
}

// Clone returns an independent copy of the generator frozen at the
// current state: the clone and the original produce the same future
// stream, and advancing one leaves the other untouched. The streaming
// audit path uses this to speculate draws on a copy while keeping the
// original pristine for the batch fallback.
func (r *RNG) Clone() *RNG {
	c := *r
	return &c
}

// State is the full serializable snapshot of a generator: the 128-bit
// PCG state, the stream selector, and the Box–Muller cache. The cache
// matters — NormFloat64 draws two variates per transform and hands the
// second one out on the next call, so dropping it would desynchronize a
// restored stream from the original by one Gaussian draw. Checkpoints
// persist State so a resumed run continues the exact stream.
type State struct {
	Hi, Lo       uint64
	IncHi, IncLo uint64
	HaveGauss    bool
	Gauss        float64
}

// State snapshots the generator. The snapshot is a value copy: advancing
// the generator afterwards does not disturb it.
func (r *RNG) State() State {
	return State{Hi: r.hi, Lo: r.lo, IncHi: r.incHi, IncLo: r.incLo, HaveGauss: r.haveGauss, Gauss: r.gauss}
}

// SetState overwrites the generator with a snapshot taken by State. The
// stream-selector low half is forced odd, preserving the PCG increment
// invariant even for snapshots from untrusted bytes.
func (r *RNG) SetState(s State) {
	r.hi, r.lo = s.Hi, s.Lo
	r.incHi, r.incLo = s.IncHi, s.IncLo|1
	r.haveGauss, r.gauss = s.HaveGauss, s.Gauss
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Perm returns a pseudo-random permutation of [0, n) as a slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap, which
// exchanges the elements at indexes i and j.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct indices drawn uniformly from [0, n) in
// selection order. It panics if k > n or k < 0.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample with k out of range")
	}
	p := r.Perm(n)
	return p[:k]
}

// DeriveSeed deterministically derives an independent seed from a base
// seed, a domain tag and an index, using splitmix64 finalization. It lets
// distributed components (e.g. the networked federation server and its
// remote clients) agree on per-entity streams without shipping generator
// state.
func DeriveSeed(base uint64, tag string, index uint64) uint64 {
	x := base
	for _, b := range []byte(tag) {
		x = (x ^ uint64(b)) * 0x100000001b3 // FNV-style tag mixing
	}
	x ^= index * 0x9e3779b97f4a7c15
	// splitmix64 finalizer.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
