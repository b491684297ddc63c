// Package defense implements the paper's defensive strategies: FedGuard
// (selective parameter aggregation driven by CVAE-synthesized validation
// data, Algorithm 1) and the Spectral anomaly-detection baseline (Li et
// al., reference [19]).
package defense

import (
	"slices"

	"fedguard/internal/aggregate"
	"fedguard/internal/classifier"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/fl"
	"fedguard/internal/nn"
	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// FedGuard is the paper's contribution (Alg. 1 lines 1–7). Each round it
//
//  1. samples t latent vectors z ~ N(0,1) and t labels y uniform over
//     the L classes (the paper's class-balanced setting),
//  2. synthesizes a validation set by spreading the (z, y) pairs across
//     the active clients' uploaded CVAE decoders,
//  3. scores every client's classifier update by its accuracy on the
//     synthetic set, and
//  4. aggregates — with a pluggable inner operator, FedAvg by default —
//     only the updates scoring at or above the round's mean accuracy.
type FedGuard struct {
	// Arch rebuilds the classifier for server-side auditing; it must be
	// the same architecture the clients train.
	Arch classifier.Arch
	// CVAECfg describes the decoder payloads the clients upload.
	CVAECfg cvae.Config
	// Samples is t, the number of synthetic validation samples per round.
	// The paper uses t = 2m. If zero, 2·len(updates) is used.
	Samples int
	// Inner is the aggregation operator applied to the surviving updates;
	// nil means FedAvg (aggregate.WeightedMean). Paper §VI-C notes the
	// operator is swappable.
	Inner aggregate.Inner
	// UseDecoderClasses makes synthesis respect each update's
	// DecoderClasses: a (z, y) pair is routed to a decoder whose training
	// data contained class y whenever one exists. This is the paper's
	// §VI-B mitigation for highly heterogeneous clients whose CVAEs have
	// never seen some classes.
	UseDecoderClasses bool

	// auditModels is the only state kept across rounds: one model per
	// worker, built lazily. What the strategy decided is in the round's
	// record, not here.
	auditModels []*nn.Sequential
}

// NewFedGuard returns a FedGuard strategy with the paper's defaults. The
// synthetic images are SynthDigits/MNIST-shaped: dataset.ImageH ×
// dataset.ImageW.
func NewFedGuard(arch classifier.Arch, cfg cvae.Config) *FedGuard {
	return &FedGuard{Arch: arch, CVAECfg: cfg}
}

// Name implements fl.Strategy.
func (g *FedGuard) Name() string { return "FedGuard" }

// NeedsDecoders implements fl.Strategy: FedGuard is the only strategy
// that requires decoder payloads.
func (g *FedGuard) NeedsDecoders() bool { return true }

// Aggregate implements fl.Strategy (Alg. 1 lines 1–7): the audit plan of
// stream.go on the barrier schedule. Every update is submitted at once
// with scoring held until synthesis has drained, so the plan runs one
// synthesis job per decoder and then one scoring job per update over the
// whole set. ctx.RNG is not advanced.
func (g *FedGuard) Aggregate(ctx *fl.RoundContext) ([]float32, error) {
	s, err := g.synthesized(ctx)
	if err != nil {
		return nil, err
	}
	// Score every update on the synthetic validation set (line 5).
	audit := ctx.Span.Child("server.audit")
	accs, err := s.scores()
	audit.End()
	if err != nil {
		return nil, err
	}
	return g.finalizeScores(ctx, accs)
}

// synthesized runs the first half of the barrier schedule: a plan begun
// on the delivered updates, all of them submitted, scoring held, waited
// on until every decoder's block is in.
func (g *FedGuard) synthesized(ctx *fl.RoundContext) (*AuditStream, error) {
	defer ctx.Span.Child("server.synthesize").End()
	s, err := g.begin(ctx, len(ctx.Updates), true)
	if err != nil {
		return nil, err
	}
	for slot, u := range ctx.Updates {
		s.Submit(slot, u)
	}
	if err := s.drain(true); err != nil {
		s.Abort()
		return nil, err
	}
	return s, nil
}

// finalizeScores applies Alg. 1 lines 6–7 to the per-update audit
// accuracies: the mean threshold, the filter — recorded as the round's
// decision — and the inner aggregation.
func (g *FedGuard) finalizeScores(ctx *fl.RoundContext, accs []float64) ([]float32, error) {
	var mean float64
	for _, acc := range accs {
		mean += acc
	}
	mean /= float64(len(accs)) // line 6

	// filter(ψ, ACC_j >= mean) (line 7).
	kept := ctx.Decide(mean, accs, func(acc float64) bool { return acc >= mean })

	inner := g.Inner
	if inner == nil {
		inner = aggregate.WeightedMean
	}
	return inner(kept)
}

// Synthesize builds the round's synthetic validation set (Alg. 1 lines
// 2–4): a (t, 1, H, W) image tensor and the conditioning labels that act
// as ground truth, both in sample order. It is the first half of
// Aggregate — the plan keeps its rows in the order the decoders' blocks
// completed — plus a gather. Exposed for tests and for data inspection.
func (g *FedGuard) Synthesize(ctx *fl.RoundContext) (*tensor.Tensor, []int, error) {
	s, err := g.synthesized(ctx)
	if err != nil {
		return nil, nil, err
	}
	s.Abort()
	x := tensor.New(s.plan.t, 1, dataset.ImageH, dataset.ImageW)
	size := g.CVAECfg.Input
	for row, i := range s.plan.rows {
		copy(x.Data[i*size:(i+1)*size], s.x.Data[row*size:(row+1)*size])
	}
	return x, s.plan.labels, nil
}

// drawPlan makes every random draw of a round of m updates, in the
// documented order: the latents z ~ N(0,1), then the labels, uniform
// over the classes (Alg. 1 lines 2–3).
func (g *FedGuard) drawPlan(r *rng.RNG, m int) (z *tensor.Tensor, labels []int) {
	t := g.Samples
	if t <= 0 {
		t = 2 * m
	}
	z = tensor.New(t, g.CVAECfg.Latent)
	r.FillNormal(z.Data, 0, 1)
	labels = make([]int, t)
	for i := range labels {
		labels[i] = r.CategoricalUniform(g.CVAECfg.Classes)
	}
	return z, labels
}

// assignSamples spreads the t (z, y) pairs across the decoders (Alg. 1
// line 4), mapping every sample index to a decoder index: with t = 2m
// each active decoder contributes 2 samples, matching the paper's
// description of D_syn as a pool over all active decoders. Plain mode is
// round-robin; with UseDecoderClasses each sample goes to a decoder
// claiming its label (cycling among claimants, §VI-B), falling back to
// the global cycle when no decoder claims the class.
func (g *FedGuard) assignSamples(labels []int, nd int, decoderClasses [][]int) []int {
	byClass := make([][]int, g.CVAECfg.Classes) // claimants by class; none unless routed
	for d, classes := range decoderClasses {
		for c := range byClass {
			// nil classes mean unknown coverage: trained on everything.
			if g.UseDecoderClasses && (classes == nil || slices.Contains(classes, c)) {
				byClass[c] = append(byClass[c], d)
			}
		}
	}
	assign := make([]int, len(labels))
	counters := make([]int, g.CVAECfg.Classes)
	for i, y := range labels {
		if claimants := byClass[y]; len(claimants) > 0 {
			assign[i] = claimants[counters[y]%len(claimants)]
			counters[y]++
		} else {
			assign[i] = i % nd
		}
	}
	return assign
}
