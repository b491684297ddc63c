package aggregate

import (
	"math"

	"fedguard/internal/fl"
	"fedguard/internal/tensor"
)

// FedAvg is the undefended baseline strategy (McMahan et al.).
type FedAvg struct{}

// NewFedAvg returns the FedAvg strategy.
func NewFedAvg() *FedAvg { return &FedAvg{} }

// Name implements fl.Strategy.
func (s *FedAvg) Name() string { return "FedAvg" }

// NeedsDecoders implements fl.Strategy.
func (s *FedAvg) NeedsDecoders() bool { return false }

// Aggregate implements fl.Strategy by weighted averaging.
func (s *FedAvg) Aggregate(ctx *fl.RoundContext) ([]float32, error) {
	return WeightedMean(ctx.Updates)
}

// GeoMed aggregates with the geometric median (Chen et al.).
type GeoMed struct{}

// NewGeoMed returns the GeoMed strategy.
func NewGeoMed() *GeoMed { return &GeoMed{} }

// Name implements fl.Strategy.
func (s *GeoMed) Name() string { return "GeoMed" }

// NeedsDecoders implements fl.Strategy.
func (s *GeoMed) NeedsDecoders() bool { return false }

// Aggregate implements fl.Strategy.
func (s *GeoMed) Aggregate(ctx *fl.RoundContext) ([]float32, error) {
	return GeometricMedian(ctx.Updates)
}

// KrumStrategy selects the single update closest to its neighbours
// (Blanchard et al.), assuming f = (m−1)/2 Byzantine updates among a
// round's m, the largest count Krum tolerates.
type KrumStrategy struct{}

// NewKrum returns the Krum strategy.
func NewKrum() *KrumStrategy { return &KrumStrategy{} }

// Name implements fl.Strategy.
func (s *KrumStrategy) Name() string { return "Krum" }

// NeedsDecoders implements fl.Strategy.
func (s *KrumStrategy) NeedsDecoders() bool { return false }

// Aggregate implements fl.Strategy.
func (s *KrumStrategy) Aggregate(ctx *fl.RoundContext) ([]float32, error) {
	idx, err := KrumSelect(ctx.Updates, (len(ctx.Updates)-1)/2)
	if err != nil {
		return nil, err
	}
	ctx.Report[fl.ReportKrumSelected] = float64(ctx.Updates[idx].ClientID)
	out := make([]float32, len(ctx.Updates[idx].Weights))
	copy(out, ctx.Updates[idx].Weights)
	return out, nil
}

// MedianStrategy aggregates with the coordinate-wise median.
type MedianStrategy struct{}

// NewMedian returns the coordinate-wise-median strategy.
func NewMedian() *MedianStrategy { return &MedianStrategy{} }

// Name implements fl.Strategy.
func (s *MedianStrategy) Name() string { return "Median" }

// NeedsDecoders implements fl.Strategy.
func (s *MedianStrategy) NeedsDecoders() bool { return false }

// Aggregate implements fl.Strategy.
func (s *MedianStrategy) Aggregate(ctx *fl.RoundContext) ([]float32, error) {
	return CoordinateMedian(ctx.Updates)
}

// TrimmedMeanStrategy aggregates with the coordinate-wise trimmed mean,
// trimming m/4 of a round's m values at each extreme.
type TrimmedMeanStrategy struct{}

// NewTrimmedMean returns the trimmed-mean strategy.
func NewTrimmedMean() *TrimmedMeanStrategy { return &TrimmedMeanStrategy{} }

// Name implements fl.Strategy.
func (s *TrimmedMeanStrategy) Name() string { return "TrimmedMean" }

// NeedsDecoders implements fl.Strategy.
func (s *TrimmedMeanStrategy) NeedsDecoders() bool { return false }

// Aggregate implements fl.Strategy.
func (s *TrimmedMeanStrategy) Aggregate(ctx *fl.RoundContext) ([]float32, error) {
	return TrimmedMean(ctx.Updates, len(ctx.Updates)/4)
}

// NormClipStrategy clips update norms to the round's median update norm
// before FedAvg (Sun et al.).
type NormClipStrategy struct{}

// NewNormClip returns the norm-thresholding strategy.
func NewNormClip() *NormClipStrategy { return &NormClipStrategy{} }

// Name implements fl.Strategy.
func (s *NormClipStrategy) Name() string { return "NormClip" }

// NeedsDecoders implements fl.Strategy.
func (s *NormClipStrategy) NeedsDecoders() bool { return false }

// Aggregate implements fl.Strategy.
func (s *NormClipStrategy) Aggregate(ctx *fl.RoundContext) ([]float32, error) {
	bound, err := medianNorm(ctx.Updates)
	if err != nil {
		return nil, err
	}
	clipped, err := NormClip(ctx.Updates, bound)
	if err != nil {
		return nil, err
	}
	return WeightedMean(clipped)
}

func medianNorm(updates []fl.Update) (float64, error) {
	if len(updates) == 0 {
		return 0, ErrNoUpdates
	}
	norms := make([]float64, len(updates))
	tensor.ParallelBlocks(len(updates), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			norms[i] = tensor.SumSqBlocked(updates[i].Weights)
		}
	})
	// Selection by sorting; m is small.
	for i := 1; i < len(norms); i++ {
		for j := i; j > 0 && norms[j] < norms[j-1]; j-- {
			norms[j], norms[j-1] = norms[j-1], norms[j]
		}
	}
	mid := norms[len(norms)/2]
	return math.Sqrt(mid), nil
}
