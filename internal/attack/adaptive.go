// Adaptive and colluding adversaries beyond the paper's §IV-B threat
// model: ALIE ("a little is enough", Baruch et al.), inner-product
// manipulation (Xie et al.), the AGR-tailored min-max attack (Shejwalkar
// & Houmansadr), and a decoder-forging adaptive attack aimed at
// FedGuard's synthetic-data audit specifically.
//
// The colluding attacks implement CohortAware: every malicious client
// first trains a benign-looking draft, then the cohort observes all
// co-conspirators' drafts and rewrites them jointly before upload. The
// round engine applies the hook at the round barrier on both
// deployments: real colluders would coordinate out of band, which the
// simulation stands in for by rewriting the delivered drafts server-side.
package attack

import (
	"math"

	"fedguard/internal/dataset"
	"fedguard/internal/rng"
)

// CohortAware is implemented by attacks whose malicious clients
// coordinate within a round. After every colluder has trained its
// benign-looking draft, PoisonCohort observes all drafts and rewrites
// them in place; the per-client PoisonModel hook produces the draft, and
// is all that happens when a single colluder is sampled.
type CohortAware interface {
	Attack
	// PoisonCohort rewrites the cohort's drafts in place. drafts[i]
	// belongs to client ids[i]; callers must order both slices by
	// ascending client ID so the joint statistics — and therefore the
	// run — are deterministic. r is the cohort's shared per-round stream.
	PoisonCohort(drafts [][]float32, ids []int, r *rng.RNG)
}

// CVAEDataAware is implemented by attacks that poison the classifier's
// and the CVAE's training views differently. Clients train their CVAE on
// the view returned by PoisonCVAEData instead of the PoisonData view —
// the hook the decoder-forging adaptive attack needs to keep its
// synthetic votes clean while its classifier is poisoned.
type CVAEDataAware interface {
	Attack
	// PoisonCVAEData returns the dataset view the client's CVAE trains
	// on. Implementations must not mutate ds.
	PoisonCVAEData(ds *dataset.Dataset, indices []int) (*dataset.Dataset, []int)
}

// AGRTailored is implemented by attacks that adapt to the aggregation
// rule they face (the min-max attack). The round engine (fl.RunRounds)
// calls TailorTo with its strategy's name before the first round.
type AGRTailored interface {
	Attack
	// TailorTo points the attack at the named aggregation rule
	// ("Krum", "FedAvg", ...). Unknown names fall back to the
	// aggregator-agnostic distance criterion.
	TailorTo(strategy string)
}

// Defaults for the extension attacks, shared by the experiment and
// fednet registries.
const (
	// DefaultBoostLambda is ScaledBoost's boost factor: large enough that
	// a handful of colluders dominate a FedAvg round at m = 50.
	DefaultBoostLambda = 10
	// DefaultALIEZ is ALIE's deviation in benign standard deviations —
	// small enough to hide inside the cohort's empirical spread.
	DefaultALIEZ = 1.5
	// DefaultIPMEpsilon scales IPM's negated mean; > 1/fraction reverses
	// the aggregate's direction outright under FedAvg.
	DefaultIPMEpsilon = 5
)

// cohortMean returns the per-coordinate float64 mean of the drafts,
// accumulated in index order so the result is deterministic.
func cohortMean(drafts [][]float32) []float64 {
	mu := make([]float64, len(drafts[0]))
	for _, d := range drafts {
		for i, v := range d {
			mu[i] += float64(v)
		}
	}
	inv := 1 / float64(len(drafts))
	for i := range mu {
		mu[i] *= inv
	}
	return mu
}

// ALIE is the "a little is enough" attack (Baruch et al., NeurIPS 2019):
// the colluders estimate the benign update distribution from their own
// honestly trained drafts and all submit the same vector μ − z·σ — a
// deviation small enough to sit inside the empirical spread (defeating
// distance- and norm-based defenses) yet consistently biased, so it
// accumulates across rounds. z is DefaultALIEZ.
type ALIE struct{}

// NewALIE returns the attack.
func NewALIE() *ALIE { return &ALIE{} }

// Name implements Attack.
func (a *ALIE) Name() string { return "alie" }

// PoisonData returns the input unchanged (model attack only).
func (a *ALIE) PoisonData(ds *dataset.Dataset, indices []int) (*dataset.Dataset, []int) {
	return ds, indices
}

// PoisonModel is the solo fallback: a cohort of one has zero empirical
// standard deviation, so μ − z·σ collapses to the client's own draft.
func (a *ALIE) PoisonModel(w []float32, r *rng.RNG) {}

// PoisonCohort implements CohortAware: every draft becomes μ − z·σ of
// the cohort's drafts, per coordinate.
func (a *ALIE) PoisonCohort(drafts [][]float32, ids []int, r *rng.RNG) {
	if len(drafts) == 0 {
		return
	}
	mu := cohortMean(drafts)
	m := make([]float32, len(mu))
	inv := 1 / float64(len(drafts))
	for i := range mu {
		var varSum float64
		for _, d := range drafts {
			diff := float64(d[i]) - mu[i]
			varSum += diff * diff
		}
		m[i] = float32(mu[i] - DefaultALIEZ*math.Sqrt(varSum*inv))
	}
	for _, d := range drafts {
		copy(d, m)
	}
}

// IPM is the inner-product manipulation attack (Xie et al., UAI 2019):
// the colluders submit −ε times their estimate of the benign mean, so
// the aggregate's inner product with the true gradient direction turns
// negative and the global model walks backwards. ε is
// DefaultIPMEpsilon.
type IPM struct{}

// NewIPM returns the attack.
func NewIPM() *IPM { return &IPM{} }

// Name implements Attack.
func (a *IPM) Name() string { return "ipm" }

// PoisonData returns the input unchanged (model attack only).
func (a *IPM) PoisonData(ds *dataset.Dataset, indices []int) (*dataset.Dataset, []int) {
	return ds, indices
}

// PoisonModel is the solo fallback: the cohort-of-one mean is the
// client's own draft, so the formula reduces to w ← −ε·w.
func (a *IPM) PoisonModel(w []float32, r *rng.RNG) {
	for i := range w {
		w[i] = -DefaultIPMEpsilon * w[i]
	}
}

// PoisonCohort implements CohortAware: every draft becomes −ε·μ of the
// cohort's drafts.
func (a *IPM) PoisonCohort(drafts [][]float32, ids []int, r *rng.RNG) {
	if len(drafts) == 0 {
		return
	}
	mu := cohortMean(drafts)
	m := make([]float32, len(mu))
	for i := range mu {
		m[i] = float32(-DefaultIPMEpsilon * mu[i])
	}
	for _, d := range drafts {
		copy(d, m)
	}
}

// MinMax is the AGR-tailored min-max attack (Shejwalkar & Houmansadr,
// NDSS 2021): the colluders submit μ + γ·p, where p is the inverse unit
// mean direction and γ is the largest deviation — found by binary search
// — that still survives the target aggregation rule. "Surviving" is
// judged by a per-aggregator oracle: the Krum oracle requires the
// crafted update's Krum score to be no worse than the worst draft's; all
// other rules use the aggregator-agnostic distance criterion (the
// crafted update stays within the drafts' maximum pairwise distance).
type MinMax struct {
	// Strategy names the aggregation rule the attack is tailored to
	// ("Krum" engages the Krum-score oracle; anything else, including
	// empty, uses the distance criterion). Set directly or via TailorTo.
	Strategy string
}

// minMaxIters bounds MinMax's binary search for γ.
const minMaxIters = 20

// NewMinMax returns the attack tailored to the named aggregation rule.
func NewMinMax(strategy string) *MinMax { return &MinMax{Strategy: strategy} }

// Name implements Attack.
func (a *MinMax) Name() string { return "min-max" }

// TailorTo implements AGRTailored.
func (a *MinMax) TailorTo(strategy string) { a.Strategy = strategy }

// PoisonData returns the input unchanged (model attack only).
func (a *MinMax) PoisonData(ds *dataset.Dataset, indices []int) (*dataset.Dataset, []int) {
	return ds, indices
}

// PoisonModel is the solo fallback: against a single draft the maximum
// pairwise distance is zero, so no deviation survives and the crafted
// update collapses to the draft itself.
func (a *MinMax) PoisonModel(w []float32, r *rng.RNG) {}

// PoisonCohort implements CohortAware: binary-search the largest
// surviving γ and submit μ + γ·p from every colluder.
func (a *MinMax) PoisonCohort(drafts [][]float32, ids []int, r *rng.RNG) {
	if len(drafts) < 2 {
		return // solo: nothing survives, keep the draft (see PoisonModel)
	}
	mu := cohortMean(drafts)
	// p: inverse unit mean — the direction that most opposes the benign
	// consensus. A zero mean degrades to a uniform negative direction.
	var norm float64
	for _, v := range mu {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	p := make([]float64, len(mu))
	if norm == 0 {
		c := -1 / math.Sqrt(float64(len(mu)))
		for i := range p {
			p[i] = c
		}
	} else {
		for i, v := range mu {
			p[i] = -v / norm
		}
	}

	maxPair := maxPairwiseDistSq(drafts)
	// The search starts well beyond any surviving deviation: four times
	// the drafts' largest pairwise distance, plus one.
	gammaInit := 4*math.Sqrt(maxPair) + 1

	m := make([]float32, len(mu))
	craft := func(gamma float64) []float32 {
		for i := range mu {
			m[i] = float32(mu[i] + gamma*p[i])
		}
		return m
	}
	var best float64
	gamma, step := gammaInit, gammaInit/2
	for it := 0; it < minMaxIters; it++ {
		if a.survives(craft(gamma), drafts, maxPair) {
			if gamma > best {
				best = gamma
			}
			gamma += step
		} else {
			gamma -= step
			if gamma < 0 {
				gamma = 0
			}
		}
		step /= 2
	}
	final := craft(best)
	for _, d := range drafts {
		copy(d, final)
	}
}

// survives applies the configured oracle to a crafted update m.
func (a *MinMax) survives(m []float32, drafts [][]float32, maxPair float64) bool {
	switch a.Strategy {
	case "Krum", "krum":
		return krumSurvives(m, drafts)
	default:
		// Distance criterion: m is no farther from any draft than the
		// drafts are from each other.
		var worst float64
		for _, d := range drafts {
			if dd := distSq(m, d); dd > worst {
				worst = dd
			}
		}
		return worst <= maxPair
	}
}

// krumSurvives scores drafts ∪ {m} with a local Krum score (the sum of
// each candidate's ⌈n/2⌉ smallest squared distances to the others; the
// real scorer lives in package aggregate, which package attack cannot
// import without a cycle) and accepts m when it scores no worse than the
// worst draft — i.e. Krum has no reason to prefer discarding m.
func krumSurvives(m []float32, drafts [][]float32) bool {
	cand := make([][]float32, 0, len(drafts)+1)
	cand = append(cand, drafts...)
	cand = append(cand, m)
	n := len(cand)
	k := n / 2
	if k < 1 {
		k = 1
	}
	scores := make([]float64, n)
	dists := make([]float64, n-1)
	for i := range cand {
		dists = dists[:0]
		for j := range cand {
			if i != j {
				dists = append(dists, distSq(cand[i], cand[j]))
			}
		}
		// Partial selection sort of the k smallest distances: cohorts are
		// small (≤ m per round), so O(k·n) is fine and allocation-free.
		kk := k
		if kk > len(dists) {
			kk = len(dists)
		}
		var sum float64
		for s := 0; s < kk; s++ {
			min := s
			for t := s + 1; t < len(dists); t++ {
				if dists[t] < dists[min] {
					min = t
				}
			}
			dists[s], dists[min] = dists[min], dists[s]
			sum += dists[s]
		}
		scores[i] = sum
	}
	mScore := scores[n-1]
	var worstDraft float64
	for _, s := range scores[:n-1] {
		if s > worstDraft {
			worstDraft = s
		}
	}
	return mScore <= worstDraft
}

func distSq(a, b []float32) float64 {
	var sum float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		sum += d * d
	}
	return sum
}

func maxPairwiseDistSq(drafts [][]float32) float64 {
	var worst float64
	for i := range drafts {
		for j := i + 1; j < len(drafts); j++ {
			if d := distSq(drafts[i], drafts[j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// DecoderForge is the adaptive attack tailored to FedGuard: the
// malicious client trains its CVAE on the clean partition — so the
// decoder it uploads, its vote into the server's synthetic validation
// pool, is indistinguishable from a benign one — while its classifier
// trains on targeted-flipped data. The flip is deliberately minimal
// (one-directional, a single source class by default): the classifier's
// synthetic-set accuracy drops by at most one class's worth, small
// enough to hide inside the benign cohort's score spread, so FedGuard's
// mean-threshold audit excludes the forger far less reliably than it
// excludes the static attacks — while the targeted misclassification
// still accumulates in the global model.
//
// The clean decoder is what makes the small flip viable: the paper's
// symmetric label-flip corrupts the synthetic pool itself (the audit
// loses discrimination, excluding benign and malicious alike), whereas
// the forger keeps the pool trustworthy and relies on staying under its
// bar.
type DecoderForge struct {
	// Remap maps source label → target label, applied one-directionally
	// to the classifier's training view only.
	Remap map[int]int
}

// NewDecoderForge returns the attack with the paper's primary targeted
// pair, directed: 5 → 7.
func NewDecoderForge() *DecoderForge { return &DecoderForge{Remap: map[int]int{5: 7}} }

// Name implements Attack.
func (a *DecoderForge) Name() string { return "decoder-forge" }

// PoisonData rewrites the classifier's training labels through Remap.
// Pixel data is shared structurally, like LabelFlip.
func (a *DecoderForge) PoisonData(ds *dataset.Dataset, indices []int) (*dataset.Dataset, []int) {
	flipped := &dataset.Dataset{
		X:      ds.X,
		Labels: append([]int(nil), ds.Labels...),
		H:      ds.H,
		W:      ds.W,
	}
	for _, i := range indices {
		if to, ok := a.Remap[flipped.Labels[i]]; ok {
			flipped.Labels[i] = to
		}
	}
	return flipped, indices
}

// PoisonCVAEData implements CVAEDataAware: the CVAE trains on the clean
// partition, forging a benign-looking decoder.
func (a *DecoderForge) PoisonCVAEData(ds *dataset.Dataset, indices []int) (*dataset.Dataset, []int) {
	return ds, indices
}

// PoisonModel is a no-op (the poisoning happened in training data).
func (a *DecoderForge) PoisonModel(w []float32, r *rng.RNG) {}
