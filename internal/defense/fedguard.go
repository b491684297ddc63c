// Package defense implements the paper's defensive strategies: FedGuard
// (selective parameter aggregation driven by CVAE-synthesized validation
// data, Algorithm 1) and the Spectral anomaly-detection baseline (Li et
// al., reference [19]).
package defense

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"fedguard/internal/aggregate"
	"fedguard/internal/classifier"
	"fedguard/internal/cvae"
	"fedguard/internal/fl"
	"fedguard/internal/nn"
	"fedguard/internal/tensor"
)

// FedGuard is the paper's contribution (Alg. 1 lines 1–7). Each round it
//
//  1. samples t latent vectors z ~ N(0,1) and t labels y ~ Cat(L, α),
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
	// MaxDecoders optionally caps how many of the active clients'
	// decoders participate in data synthesis (paper §VI-A "tuneable
	// system": fewer decoders, less server compute). 0 means all.
	MaxDecoders int
	// ClassProbs is α, the assumed per-class probability for conditioning
	// label sampling. nil means uniform (the paper's class-balanced
	// setting).
	ClassProbs []float64
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
	// ImageH and ImageW shape the synthetic images for the classifier.
	ImageH, ImageW int
	// AuditWorkers bounds the goroutines used to score client updates and
	// to run per-decoder synthesis. 0 means GOMAXPROCS; 1 forces the
	// serial path. Any setting produces bit-identical results: accuracies
	// land in an index-ordered slice and are reduced serially, every RNG
	// draw happens before the parallel sections, and the workers write
	// disjoint regions — parallelism changes only wall-clock time.
	AuditWorkers int

	auditModels []*nn.Sequential // lazily built, one per worker, reused across rounds

	// Per-client detection bookkeeping, accumulated across rounds.
	excludedCount map[int]int
	seenCount     map[int]int
}

// NewFedGuard returns a FedGuard strategy with the paper's defaults for
// 28×28 SynthDigits/MNIST-shaped data.
func NewFedGuard(arch classifier.Arch, cfg cvae.Config) *FedGuard {
	return &FedGuard{Arch: arch, CVAECfg: cfg, ImageH: 28, ImageW: 28}
}

// Name implements fl.Strategy.
func (g *FedGuard) Name() string { return "FedGuard" }

// NeedsDecoders implements fl.Strategy: FedGuard is the only strategy
// that requires decoder payloads.
func (g *FedGuard) NeedsDecoders() bool { return true }

// Aggregate implements fl.Strategy (Alg. 1 lines 1–7).
func (g *FedGuard) Aggregate(ctx *fl.RoundContext) ([]float32, error) {
	updates := ctx.Updates
	if len(updates) == 0 {
		return nil, aggregate.ErrNoUpdates
	}
	x, labels, err := g.Synthesize(ctx)
	if err != nil {
		return nil, err
	}

	// Score every update on the synthetic validation set (line 5). The
	// audits are independent, so they fan out across AuditWorkers models;
	// accs is index-ordered and the mean is reduced serially below, so the
	// result does not depend on the worker count.
	stopAudit := ctx.StartPhase("server.audit")
	accs := make([]float64, len(updates))
	if err := g.auditAll(updates, x, labels, accs); err != nil {
		return nil, err
	}
	stopAudit()
	return g.finalizeScores(ctx, accs)
}

// finalizeScores applies Alg. 1 lines 6–7 to the per-update audit
// accuracies: the mean threshold, filtering with detection bookkeeping,
// and the inner aggregation. Both the batch path (Aggregate) and the
// streaming path (AuditStream.Finalize) funnel through here, which is
// part of what keeps them byte-identical.
func (g *FedGuard) finalizeScores(ctx *fl.RoundContext, accs []float64) ([]float32, error) {
	updates := ctx.Updates
	var mean float64
	for _, acc := range accs {
		mean += acc
	}
	mean /= float64(len(updates)) // line 6

	// filter(ψ, ACC_j >= mean) (line 7).
	if g.excludedCount == nil {
		g.excludedCount = map[int]int{}
		g.seenCount = map[int]int{}
	}
	var kept []fl.Update
	for i, u := range updates {
		g.seenCount[u.ClientID]++
		if accs[i] >= mean {
			kept = append(kept, u)
		} else {
			g.excludedCount[u.ClientID]++
			ctx.ExcludeClient(u.ClientID, accs[i], mean)
		}
	}
	ctx.Report[fl.ReportFedGuardMeanAcc] = mean
	ctx.Report[fl.ReportFedGuardKept] = float64(len(kept))
	ctx.Report[fl.ReportFedGuardExcluded] = float64(len(updates) - len(kept))

	inner := g.Inner
	if inner == nil {
		inner = aggregate.WeightedMean
	}
	return inner(kept)
}

// DetectionStats returns, per client ID, how many times the client's
// update was excluded and how many times it participated, accumulated
// over every round this strategy instance aggregated. The ratio is a
// malicious-peer score — the paper's conclusion suggests exactly this use
// (flagging defective or adversarial participants).
func (g *FedGuard) DetectionStats() (excluded, participated map[int]int) {
	excluded = make(map[int]int, len(g.excludedCount))
	participated = make(map[int]int, len(g.seenCount))
	for id, n := range g.excludedCount {
		excluded[id] = n
	}
	for id, n := range g.seenCount {
		participated[id] = n
	}
	return excluded, participated
}

// Synthesize builds the round's synthetic validation set (Alg. 1 lines
// 2–4): a (t, 1, H, W) image tensor and the conditioning labels that act
// as ground truth. Exposed for tests and for the data-inspection
// examples.
func (g *FedGuard) Synthesize(ctx *fl.RoundContext) (*tensor.Tensor, []int, error) {
	defer ctx.StartPhase("server.synthesize")()
	imgSize := g.CVAECfg.Input
	if imgSize != g.ImageH*g.ImageW {
		return nil, nil, fmt.Errorf("defense: CVAE input %d does not match %dx%d images",
			imgSize, g.ImageH, g.ImageW)
	}
	decoders, decoderClasses, err := g.activeDecoders(ctx)
	if err != nil {
		return nil, nil, err
	}
	t := g.Samples
	if t <= 0 {
		t = 2 * len(ctx.Updates)
	}

	// z ~ N(0,1), y ~ Cat(L, α) (lines 2–3).
	z := tensor.New(t, g.CVAECfg.Latent)
	ctx.RNG.FillNormal(z.Data, 0, 1)
	labels := make([]int, t)
	for i := range labels {
		if g.ClassProbs != nil {
			labels[i] = ctx.RNG.Categorical(g.ClassProbs)
		} else {
			labels[i] = ctx.RNG.CategoricalUniform(g.CVAECfg.Classes)
		}
	}

	// Spread the t pairs across the decoders (line 4): with t = 2m each
	// active decoder contributes 2 samples, matching the paper's
	// description of D_syn as a pool over all active decoders. Plain mode
	// assigns round-robin; UseDecoderClasses routes each pair to a decoder
	// trained on its conditioning class (§VI-B).
	x := tensor.New(t, 1, g.ImageH, g.ImageW)
	nd := len(decoders)
	assign := g.assignSamples(labels, nd, decoderClasses)
	perDec := make([][]int, nd)
	for i, a := range assign {
		perDec[a] = append(perDec[a], i)
	}

	// Per-decoder generation is independent: every RNG draw already
	// happened above, each decoder instance owns its Generate scratch, and
	// assign partitions the sample indices so the goroutines write
	// disjoint regions of x. The result is therefore bit-identical at any
	// worker count.
	synthOne := func(d int) {
		idxs := perDec[d]
		if len(idxs) == 0 {
			return
		}
		zd := tensor.New(len(idxs), g.CVAECfg.Latent)
		ld := make([]int, len(idxs))
		for k, i := range idxs {
			copy(zd.Data[k*g.CVAECfg.Latent:(k+1)*g.CVAECfg.Latent],
				z.Data[i*g.CVAECfg.Latent:(i+1)*g.CVAECfg.Latent])
			ld[k] = labels[i]
		}
		imgs := decoders[d].Generate(zd, ld)
		for k, i := range idxs {
			copy(x.Data[i*imgSize:(i+1)*imgSize], imgs.Data[k*imgSize:(k+1)*imgSize])
		}
	}
	if w := g.workers(nd); w == 1 {
		for d := 0; d < nd; d++ {
			synthOne(d)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for wk := 0; wk < w; wk++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					d := int(next.Add(1)) - 1
					if d >= nd {
						return
					}
					synthOne(d)
				}
			}()
		}
		wg.Wait()
	}
	return x, labels, nil
}

// assignSamples maps every sample index to a decoder index. Plain mode
// is round-robin; with UseDecoderClasses each sample goes to a decoder
// claiming its label (cycling among claimants), falling back to the
// global cycle when no decoder claims the class.
func (g *FedGuard) assignSamples(labels []int, nd int, decoderClasses [][]int) []int {
	assign := make([]int, len(labels))
	if !g.UseDecoderClasses {
		for i := range assign {
			assign[i] = i % nd
		}
		return assign
	}
	byClass := make([][]int, g.CVAECfg.Classes)
	for d, classes := range decoderClasses {
		if classes == nil {
			// Unknown coverage: treat as trained on everything.
			for c := range byClass {
				byClass[c] = append(byClass[c], d)
			}
			continue
		}
		for _, c := range classes {
			if c >= 0 && c < len(byClass) {
				byClass[c] = append(byClass[c], d)
			}
		}
	}
	counters := make([]int, g.CVAECfg.Classes)
	for i, y := range labels {
		claimants := byClass[y]
		if len(claimants) == 0 {
			assign[i] = i % nd
			continue
		}
		assign[i] = claimants[counters[y]%len(claimants)]
		counters[y]++
	}
	return assign
}

// activeDecoders stands up the decoders of the round's updates,
// optionally down-sampling to MaxDecoders of them. It returns the
// decoders alongside each one's claimed class coverage. A decoder is a
// view of its update's payload (cvae.NewDecoder): building one costs a
// length check, so they are built anew every round and nothing is kept
// between rounds.
func (g *FedGuard) activeDecoders(ctx *fl.RoundContext) ([]*cvae.Decoder, [][]int, error) {
	updates := ctx.Updates
	order := make([]int, len(updates))
	for i := range order {
		order[i] = i
	}
	if g.MaxDecoders > 0 && g.MaxDecoders < len(order) {
		order = ctx.RNG.Sample(len(updates), g.MaxDecoders)
	}
	decoders := make([]*cvae.Decoder, 0, len(order))
	classes := make([][]int, 0, len(order))
	for _, i := range order {
		u := updates[i]
		if u.Decoder == nil {
			return nil, nil, fmt.Errorf("defense: client %d sent no decoder payload", u.ClientID)
		}
		dec, err := cvae.NewDecoder(g.CVAECfg, u.Decoder)
		if err != nil {
			return nil, nil, fmt.Errorf("defense: client %d: %w", u.ClientID, err)
		}
		decoders = append(decoders, dec)
		classes = append(classes, u.DecoderClasses)
	}
	if len(decoders) == 0 {
		return nil, nil, aggregate.ErrNoUpdates
	}
	return decoders, classes, nil
}

// workers resolves AuditWorkers against the machine, capped by the
// amount of independent work available.
func (g *FedGuard) workers(jobs int) int {
	w := g.AuditWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// auditAll scores every update on the synthetic set, writing accs[i] for
// update i. Workers claim indices from an atomic counter and each owns a
// private audit model (network scratch is per-model, so concurrent
// forward passes never share state); since every accuracy lands in its
// own slot, the slice is identical whatever the worker count.
func (g *FedGuard) auditAll(updates []fl.Update, x *tensor.Tensor, labels []int, accs []float64) error {
	w := g.workers(len(updates))
	for len(g.auditModels) < w {
		g.auditModels = append(g.auditModels, g.Arch(newInitRNG()))
	}
	auditOne := func(model *nn.Sequential, i int) error {
		if err := model.LoadParams(updates[i].Weights); err != nil {
			return fmt.Errorf("defense: audit client %d: %w", updates[i].ClientID, err)
		}
		accs[i] = classifier.EvaluateTensor(model, x, labels)
		return nil
	}
	if w == 1 {
		for i := range updates {
			if err := auditOne(g.auditModels[0], i); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	errs := make([]error, w)
	var wg sync.WaitGroup
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(updates) {
					return
				}
				if err := auditOne(g.auditModels[wk], i); err != nil {
					errs[wk] = err
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
