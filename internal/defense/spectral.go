package defense

import (
	"fmt"

	"fedguard/internal/aggregate"
	"fedguard/internal/classifier"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/fl"
	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// newInitRNG returns the fixed stream used for throwaway model
// skeletons whose weights are immediately overwritten by LoadParams.
func newInitRNG() *rng.RNG { return rng.New(0xa0d17) }

// Spectral is the anomaly-detection baseline of Li et al. ("Learning to
// Detect Malicious Clients for Robust Federated Learning", reference [19]
// of the paper). Unlike FedGuard it requires an auxiliary dataset at the
// server: before federated training starts, the server simulates benign
// federated rounds on partitions of that dataset, projects the collected
// benign updates to low-dimensional surrogate vectors through a fixed
// random projection, and fits a VAE on them. During the real federation,
// updates whose surrogate reconstruction error exceeds the round's mean
// error are discarded; the rest are FedAvg-aggregated.
type Spectral struct {
	// Arch is the classifier architecture (shared with the federation).
	Arch classifier.Arch

	proj    *projection
	vae     *cvae.VAE
	trained bool
}

// The detector's sizes: the random-projection dimensionality and the
// detection VAE's hidden and latent widths.
const (
	surrogateDim = 64
	vaeHidden    = 64
	vaeLatent    = 8
)

// NewSpectral returns a Spectral strategy.
func NewSpectral(arch classifier.Arch) *Spectral {
	return &Spectral{Arch: arch}
}

// Name implements fl.Strategy.
func (s *Spectral) Name() string { return "Spectral" }

// NeedsDecoders implements fl.Strategy.
func (s *Spectral) NeedsDecoders() bool { return false }

// PretrainConfig controls the server-side preparation phase.
type PretrainConfig struct {
	// Clients is the number of pseudo-clients the auxiliary dataset is
	// split into.
	Clients int
	// Rounds of simulated benign FedAvg.
	Rounds int
	// Train is the local training configuration of the pseudo-clients;
	// it should match the real federation's client config.
	Train classifier.TrainConfig
	// VAEEpochs fits the detection VAE.
	VAEEpochs int
	// Seed fixes the preparation randomness.
	Seed uint64
}

// DefaultPretrainConfig mirrors the real clients' training setup.
func DefaultPretrainConfig(train classifier.TrainConfig) PretrainConfig {
	return PretrainConfig{Clients: 5, Rounds: 5, Train: train, VAEEpochs: 100, Seed: 0x5bec}
}

// Pretrain runs the auxiliary preparation: simulate benign federated
// rounds on aux, collect the updates, and fit the detection VAE on their
// surrogate projections. Must be called before the first Aggregate.
func (s *Spectral) Pretrain(aux *dataset.Dataset, cfg PretrainConfig) error {
	r := rng.New(cfg.Seed)
	parts := dataset.PartitionDirichlet(aux, cfg.Clients, 10, r)

	model := s.Arch(r.Split())
	dim := model.NumParams()
	s.proj = newProjection(dim, surrogateDim, 0x5fec7a1)

	global := model.FlattenParams()
	var surrogates []float32
	count := 0
	for round := 0; round < cfg.Rounds; round++ {
		var updates []fl.Update
		for c := 0; c < cfg.Clients; c++ {
			if len(parts[c]) == 0 {
				continue
			}
			m := s.Arch(r.Split())
			if err := m.LoadParams(global); err != nil {
				return err
			}
			classifier.Train(m, aux, parts[c], cfg.Train, r.Split())
			w := m.FlattenParams()
			surrogates = append(surrogates, s.proj.apply(w)...)
			count++
			updates = append(updates, fl.Update{ClientID: c, Weights: w, NumSamples: len(parts[c])})
		}
		agg, err := aggregate.WeightedMean(updates)
		if err != nil {
			return fmt.Errorf("defense: spectral pretraining: %w", err)
		}
		global = agg
	}

	x := tensor.FromSlice(surrogates, count, surrogateDim)
	s.vae = cvae.NewVAE(surrogateDim, vaeHidden, vaeLatent, r.Split())
	s.vae.Fit(x, cfg.VAEEpochs, 1e-3, 0.05, r.Split())
	s.trained = true
	return nil
}

// Aggregate implements fl.Strategy: discard updates whose surrogate
// reconstruction error exceeds the round mean, FedAvg the rest.
func (s *Spectral) Aggregate(ctx *fl.RoundContext) ([]float32, error) {
	if !s.trained {
		return nil, fmt.Errorf("defense: Spectral.Aggregate before Pretrain")
	}
	updates := ctx.Updates
	if len(updates) == 0 {
		return nil, aggregate.ErrNoUpdates
	}
	audit := ctx.Span.Child("server.audit")
	x := tensor.New(len(updates), surrogateDim)
	// Each update owns its surrogate row, so the projections parallelize
	// without affecting results.
	tensor.ParallelBlocks(len(updates), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s.proj.applyInto(x.Data[i*surrogateDim:(i+1)*surrogateDim], updates[i].Weights)
		}
	})
	errs := s.vae.ReconstructionError(x)
	audit.End()
	var mean float64
	for _, e := range errs {
		mean += e
	}
	mean /= float64(len(errs))

	kept := ctx.Decide(mean, errs, func(e float64) bool { return e <= mean })
	if len(kept) == 0 {
		// Degenerate round: fall back to everything.
		kept = ctx.Decide(mean, errs, func(float64) bool { return true })
	}
	return aggregate.WeightedMean(kept)
}

// projection is a fixed sparse random projection (Achlioptas-style signs
// on a subsampled coordinate set) mapping a dim-parameter update to a
// surrogateDim vector. Sparse sampling keeps per-update projection cost
// at O(surrogateDim · k) instead of O(surrogateDim · dim).
type projection struct {
	in, out int
	idx     [][]int     // per output row: sampled input coordinates
	sign    [][]float32 // per output row: ±1/sqrt(k)
}

const projSamplesPerRow = 256

func newProjection(in, out int, seed uint64) *projection {
	r := rng.New(seed)
	p := &projection{in: in, out: out}
	p.idx = make([][]int, out)
	p.sign = make([][]float32, out)
	k := projSamplesPerRow
	if k > in {
		k = in
	}
	norm := float32(1) / float32(k)
	for o := 0; o < out; o++ {
		p.idx[o] = make([]int, k)
		p.sign[o] = make([]float32, k)
		for j := 0; j < k; j++ {
			p.idx[o][j] = r.Intn(in)
			if r.Float64() < 0.5 {
				p.sign[o][j] = norm
			} else {
				p.sign[o][j] = -norm
			}
		}
	}
	return p
}

func (p *projection) apply(w []float32) []float32 {
	out := make([]float32, p.out)
	p.applyInto(out, w)
	return out
}

// applyInto writes the projection of w into dst without allocating.
func (p *projection) applyInto(dst []float32, w []float32) {
	if len(w) != p.in {
		panic(fmt.Sprintf("defense: projecting %d-dim update, expected %d", len(w), p.in))
	}
	if len(dst) != p.out {
		panic(fmt.Sprintf("defense: projection dst %d, expected %d", len(dst), p.out))
	}
	for o := range dst {
		var acc float32
		idx := p.idx[o]
		sign := p.sign[o]
		for j, i := range idx {
			acc += w[i] * sign[j]
		}
		dst[o] = acc
	}
}
