// Package attack implements the poisoning attacks of the paper's §IV-B
// threat evaluation — same-value and sign-flipping model attacks, the
// colluding additive-noise model attack, and the targeted label-flipping
// data attack — plus the benign no-op and an extension suite of
// defense-aware adversaries: model replacement (ScaledBoost), the
// colluding ALIE and inner-product-manipulation attacks, the
// AGR-tailored min-max attack, and the decoder-forging adaptive attack
// against FedGuard (see adaptive.go).
//
// An Attack has two hooks matching the two poisoning families:
// PoisonData rewrites the client's local training view before any
// training happens (data poisoning), and PoisonModel rewrites the trained
// parameter vector just before upload (model poisoning). A malicious
// client applies both; benign hooks are identity. Optional extension
// interfaces add capabilities: GlobalAware attacks see the round's
// starting global, CVAEDataAware attacks poison the classifier's and the
// CVAE's training views differently, and CohortAware attacks jointly
// rewrite the whole malicious cohort's drafts after local training.
package attack

import (
	"sync"

	"fedguard/internal/dataset"
	"fedguard/internal/rng"
)

// Attack is the behaviour of a malicious (or benign) client.
type Attack interface {
	// Name identifies the attack in reports.
	Name() string
	// PoisonData returns the dataset view the client trains on (both the
	// classifier and, for FedGuard clients, the CVAE). Implementations
	// must not mutate ds; they return ds unchanged or a poisoned copy.
	PoisonData(ds *dataset.Dataset, indices []int) (*dataset.Dataset, []int)
	// PoisonModel mutates the trained weight vector in place before
	// upload. r is the client's private RNG.
	PoisonModel(w []float32, r *rng.RNG)
}

// None is the benign client behaviour.
type None struct{}

// Name implements Attack.
func (None) Name() string { return "none" }

// PoisonData returns the input unchanged.
func (None) PoisonData(ds *dataset.Dataset, indices []int) (*dataset.Dataset, []int) {
	return ds, indices
}

// PoisonModel is a no-op.
func (None) PoisonModel(w []float32, r *rng.RNG) {}

// SameValue sets every uploaded weight to the constant C (paper: c = 1,
// w ← c·1⃗).
type SameValue struct {
	C float32
}

// NewSameValue returns the paper's configuration (c = 1).
func NewSameValue() *SameValue { return &SameValue{C: 1} }

// Name implements Attack.
func (a *SameValue) Name() string { return "same-value" }

// PoisonData returns the input unchanged (model attack only).
func (a *SameValue) PoisonData(ds *dataset.Dataset, indices []int) (*dataset.Dataset, []int) {
	return ds, indices
}

// PoisonModel overwrites every coordinate with C.
func (a *SameValue) PoisonModel(w []float32, r *rng.RNG) {
	for i := range w {
		w[i] = a.C
	}
}

// SignFlip negates every uploaded weight (w ← −w). The update magnitude
// is unchanged, which defeats norm-thresholding defenses.
type SignFlip struct{}

// NewSignFlip returns the sign-flipping attack.
func NewSignFlip() *SignFlip { return &SignFlip{} }

// Name implements Attack.
func (a *SignFlip) Name() string { return "sign-flip" }

// PoisonData returns the input unchanged (model attack only).
func (a *SignFlip) PoisonData(ds *dataset.Dataset, indices []int) (*dataset.Dataset, []int) {
	return ds, indices
}

// PoisonModel negates the vector in place.
func (a *SignFlip) PoisonModel(w []float32, r *rng.RNG) {
	for i := range w {
		w[i] = -w[i]
	}
}

// AdditiveNoise adds a Gaussian noise vector to the upload (w ← w + ε).
// Per the paper, all malicious clients collude on the *same* ε, so one
// AdditiveNoise instance must be shared by every malicious client; the
// noise vector is drawn once, on first use, from a dedicated stream.
//
// The latched vector makes an instance single-run: reusing it for a
// second run silently replays the first run's noise, and panics if the
// model dimension changed. Runners executing many runs (the experiment
// matrix) must construct a fresh instance per run, as experiment.NewAttack
// does.
type AdditiveNoise struct {
	Std float64

	seed uint64

	mu    sync.Mutex
	noise []float32
}

// NewAdditiveNoise builds the colluding noise attack. seed fixes the
// shared noise vector; std is the per-coordinate standard deviation.
func NewAdditiveNoise(std float64, seed uint64) *AdditiveNoise {
	return &AdditiveNoise{Std: std, seed: seed}
}

// Name implements Attack.
func (a *AdditiveNoise) Name() string { return "additive-noise" }

// PoisonData returns the input unchanged (model attack only).
func (a *AdditiveNoise) PoisonData(ds *dataset.Dataset, indices []int) (*dataset.Dataset, []int) {
	return ds, indices
}

// PoisonModel adds the shared noise vector, drawing it on first call.
// Safe for concurrent use by colluding clients.
func (a *AdditiveNoise) PoisonModel(w []float32, r *rng.RNG) {
	a.mu.Lock()
	if a.noise == nil {
		a.noise = make([]float32, len(w))
		rng.New(a.seed).FillNormal(a.noise, 0, a.Std)
	}
	noise := a.noise
	a.mu.Unlock()
	if len(noise) != len(w) {
		panic("attack: AdditiveNoise used with models of different sizes")
	}
	for i := range w {
		w[i] += noise[i]
	}
}

// LabelFlip is the targeted data-poisoning attack: training labels are
// swapped pairwise before local training. The paper flips 5↔7 and 4↔2.
// Both the local classifier and the local CVAE train on flipped data.
type LabelFlip struct {
	// Pairs lists label pairs to swap in both directions.
	Pairs [][2]int
}

// NewLabelFlip returns the paper's configuration (5↔7, 4↔2).
func NewLabelFlip() *LabelFlip {
	return &LabelFlip{Pairs: [][2]int{{5, 7}, {4, 2}}}
}

// Name implements Attack.
func (a *LabelFlip) Name() string { return "label-flip" }

// PoisonData returns a copy of ds with the configured label pairs
// swapped. Pixel data is shared structurally via the copy.
func (a *LabelFlip) PoisonData(ds *dataset.Dataset, indices []int) (*dataset.Dataset, []int) {
	flipped := &dataset.Dataset{
		X:      ds.X, // pixels unchanged; labels are remapped
		Labels: append([]int(nil), ds.Labels...),
		H:      ds.H,
		W:      ds.W,
	}
	remap := make(map[int]int, 2*len(a.Pairs))
	for _, p := range a.Pairs {
		remap[p[0]] = p[1]
		remap[p[1]] = p[0]
	}
	for _, i := range indices {
		if to, ok := remap[flipped.Labels[i]]; ok {
			flipped.Labels[i] = to
		}
	}
	return flipped, indices
}

// PoisonModel is a no-op (data attack only).
func (a *LabelFlip) PoisonModel(w []float32, r *rng.RNG) {}

// GlobalAware is an optional extension for attacks that need the round's
// starting global parameters (e.g. model replacement). Clients invoke it
// instead of PoisonModel when implemented.
type GlobalAware interface {
	Attack
	// PoisonModelWithGlobal mutates the trained weights w in place given
	// the global vector the round started from.
	PoisonModelWithGlobal(w, global []float32, r *rng.RNG)
}

// ScaledBoost is the model-replacement ("scaling") attack of Bagdasaryan
// et al.: the malicious client submits global + λ·(w − global), boosting
// its (arbitrarily biased) delta so one selected update can dominate a
// FedAvg round. With Lambda ≈ m it fully replaces the aggregate.
type ScaledBoost struct {
	Lambda float32
}

// NewScaledBoost returns the scaling attack with the given boost factor.
func NewScaledBoost(lambda float32) *ScaledBoost { return &ScaledBoost{Lambda: lambda} }

// Name implements Attack.
func (a *ScaledBoost) Name() string { return "scaled-boost" }

// PoisonData returns the input unchanged (model attack only).
func (a *ScaledBoost) PoisonData(ds *dataset.Dataset, indices []int) (*dataset.Dataset, []int) {
	return ds, indices
}

// PoisonModel falls back to plain scaling around zero when no global is
// available.
func (a *ScaledBoost) PoisonModel(w []float32, r *rng.RNG) {
	for i := range w {
		w[i] *= a.Lambda
	}
}

// PoisonModelWithGlobal implements GlobalAware.
func (a *ScaledBoost) PoisonModelWithGlobal(w, global []float32, r *rng.RNG) {
	if len(w) != len(global) {
		panic("attack: ScaledBoost dimension mismatch")
	}
	for i := range w {
		w[i] = global[i] + a.Lambda*(w[i]-global[i])
	}
}
