package defense

import (
	"math"

	"fedguard/internal/fl"
	"fedguard/internal/rng"
)

// QualitySampler implements the paper's conclusion suggestion of
// "enabling a better sampling of quality candidates": it biases per-round
// client selection away from clients the run's defense (FedGuard or
// Spectral) has repeatedly excluded. Each client's weight is
//
//	w_i = (1 − rate_i)^Sharpness + Floor
//
// with rate_i the client's exclusion rate over the run's records so far
// (fl.ExclusionCounts). Floor keeps every client selectable (so a benign
// client that had one bad round can recover), and unseen clients carry
// weight 1 + Floor (optimistic initialization — everyone gets audited
// eventually). The sampler holds no state of its own, so a resumed run
// samples what the uninterrupted one would have.
type QualitySampler struct {
	// Sharpness steepens the penalty (default 2).
	Sharpness float64
	// Floor is the minimum selection weight (default 0.05).
	Floor float64
}

// NewQualitySampler returns a sampler with the default penalty shape.
func NewQualitySampler() *QualitySampler {
	return &QualitySampler{Sharpness: 2, Floor: 0.05}
}

// SampleClients implements fl.Sampler: weighted sampling without
// replacement via repeated categorical draws.
func (q *QualitySampler) SampleClients(history []fl.RoundRecord, n, m int, r *rng.RNG) []int {
	excluded, seen := fl.ExclusionCounts(history)
	weights := make([]float64, n)
	for i := range weights {
		rate := 0.0
		if s := seen[i]; s > 0 {
			rate = float64(excluded[i]) / float64(s)
		}
		weights[i] = math.Pow(1-rate, q.Sharpness) + q.Floor
	}
	out := make([]int, 0, m)
	for len(out) < m {
		idx := r.Categorical(weights)
		out = append(out, idx)
		weights[idx] = 0 // without replacement
	}
	return out
}

// Compile-time check that QualitySampler satisfies fl.Sampler.
var _ fl.Sampler = (*QualitySampler)(nil)
