package rng

import "math"

// NormFloat64 returns a standard normal (mean 0, stddev 1) sample using
// the Box–Muller transform with caching of the second variate.
func (r *RNG) NormFloat64() float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	// The polar method: (u, v) uniform in the unit disc, origin excluded.
	// SkipNormFloat64 repeats this rejection loop; keep the two alike.
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.haveGauss = true
	return u * f
}

// SkipNormFloat64 leaves the generator in exactly the State that n calls
// of NormFloat64 would, for a fraction of their cost. The rejection loop
// is all of a Gaussian pair's effect on the uniform stream, so a cached
// variate is consumed, every pair but the last runs only that loop (no
// logarithm, no square root), and the last one or two draws go through
// NormFloat64 itself so that the Box–Muller cache — the live value after
// an odd draw, the spent one State still reports after an even draw — is
// the one the n calls would have left. n <= 0 is a no-op.
func (r *RNG) SkipNormFloat64(n int) {
	if n <= 0 {
		return
	}
	if r.haveGauss {
		r.haveGauss = false
		n--
	}
	for ; n > 2; n -= 2 {
		for {
			u := 2*r.Float64() - 1
			v := 2*r.Float64() - 1
			if s := u*u + v*v; s > 0 && s < 1 {
				break
			}
		}
	}
	for ; n > 0; n-- {
		r.NormFloat64()
	}
}

// CategoricalUniform draws an index from Cat(L, alpha = 1/L), the
// class-balanced conditioning distribution FedGuard uses to synthesize
// validation labels.
func (r *RNG) CategoricalUniform(l int) int { return r.Intn(l) }

// Gamma returns a sample from the Gamma(shape, 1) distribution using the
// Marsaglia–Tsang method (2000). shape must be positive.
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("rng: Gamma with non-positive shape")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet returns one sample from the symmetric Dirichlet distribution
// with concentration alpha over k categories. The result sums to 1.
func (r *RNG) Dirichlet(alpha float64, k int) []float64 {
	if k <= 0 {
		panic("rng: Dirichlet with non-positive k")
	}
	out := make([]float64, k)
	var sum float64
	for i := range out {
		g := r.Gamma(alpha)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		// Degenerate draw (possible for tiny alpha): fall back to a
		// single random category to keep the simplex property.
		out[r.Intn(k)] = 1
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// FillNormal fills dst with i.i.d. Gaussian samples of the given mean and
// stddev.
func (r *RNG) FillNormal(dst []float32, mean, stddev float64) {
	for i := range dst {
		dst[i] = float32(mean + stddev*r.NormFloat64())
	}
}

// FillUniform fills dst with i.i.d. uniform samples in [lo, hi).
func (r *RNG) FillUniform(dst []float32, lo, hi float64) {
	span := hi - lo
	for i := range dst {
		dst[i] = float32(lo + span*r.Float64())
	}
}
