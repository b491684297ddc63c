// Package aggregate implements the aggregation operators the paper
// evaluates FedGuard against — FedAvg (McMahan et al.), GeoMed (Chen et
// al., geometric median via Weiszfeld iteration), Krum (Blanchard et
// al.) — plus the coordinate-wise median, trimmed mean (Yin et al.) and
// norm-thresholding (Sun et al.) operators referenced in the related-work
// discussion. All satisfy fl.Strategy, and the pure vector forms are
// exported as Inner operators so FedGuard can swap its internal
// aggregator (paper §VI-C future work).
//
// Every operator runs on the deterministic blocked-reduction kernels in
// internal/tensor: distances and weighted sums accumulate over fixed
// coordinate blocks in a fixed lane order, and parallelism only splits
// independently owned outputs across workers, so results are
// bit-identical at any tensor.SetWorkers setting.
package aggregate

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"fedguard/internal/fl"
	"fedguard/internal/tensor"
)

// ErrNoUpdates is returned when a round has nothing to aggregate.
var ErrNoUpdates = errors.New("aggregate: no updates")

// Inner is a pure aggregation operator over a set of updates. FedGuard
// composes one of these behind its selective filter.
type Inner func(updates []fl.Update) ([]float32, error)

// checkUpdates returns the parameter dimension of a round that has at
// least one update, and ErrNoUpdates otherwise. Every operator calls it
// first. Shapes and values are settled before any operator runs: at the
// wire edge and by the round engine's admission.
func checkUpdates(updates []fl.Update) (int, error) {
	if len(updates) == 0 {
		return 0, ErrNoUpdates
	}
	return len(updates[0].Weights), nil
}

// rowsOf extracts the weight vectors for the tensor kernels.
func rowsOf(updates []fl.Update) [][]float32 {
	rows := make([][]float32, len(updates))
	for i, u := range updates {
		rows[i] = u.Weights
	}
	return rows
}

// WeightedMean is the FedAvg operator: the mean of the update vectors
// weighted by their sample counts, which are the sizes of the partitions
// the server drew. An empty Dirichlet partition (a zero count) weighs 1
// rather than vanishing.
func WeightedMean(updates []fl.Update) ([]float32, error) {
	dim, err := checkUpdates(updates)
	if err != nil {
		return nil, err
	}
	n := len(updates)
	w := tensor.GetF64(n)
	defer tensor.PutF64(w)
	var total float64
	for i, u := range updates {
		wi := float64(u.NumSamples)
		if wi <= 0 {
			wi = 1
		}
		w[i] = wi
		total += wi
	}
	acc := tensor.GetF64(dim)
	defer tensor.PutF64(acc)
	tensor.WeightedSumInto(acc, rowsOf(updates), w)
	out := make([]float32, dim)
	tensor.ScaleF64To32(out, acc, 1/total)
	return out, nil
}

// Weiszfeld iteration constants. The convergence tolerance is relative:
// the iteration stops when the step is tol·(1 + ‖ψ‖), so convergence is
// detected at the same iterate quality whether the weights live at 1e0
// or 1e7 — an absolute threshold can never fire above float64 noise at
// large magnitudes and silently burns all maxIter sweeps.
const (
	geoMedMaxIter = 50
	geoMedTol     = 1e-7
	geoMedEps     = 1e-10
)

// GeometricMedian computes the geometric median of the update vectors by
// Weiszfeld fixed-point iteration, which minimizes the sum of Euclidean
// distances to the inputs and is robust to a minority of outliers.
func GeometricMedian(updates []fl.Update) ([]float32, error) {
	out, _, err := geometricMedian(updates)
	return out, err
}

// geometricMedian additionally reports the number of Weiszfeld sweeps
// taken, so tests can pin the scale-aware convergence behaviour.
func geometricMedian(updates []fl.Update) ([]float32, int, error) {
	dim, err := checkUpdates(updates)
	if err != nil {
		return nil, 0, err
	}
	rows := rowsOf(updates)
	m := len(rows)
	cur := tensor.GetF64(dim)
	next := tensor.GetF64(dim)
	w := tensor.GetF64(m)
	d2 := tensor.GetF64(m)
	defer func() {
		tensor.PutF64(cur)
		tensor.PutF64(next)
		tensor.PutF64(w)
		tensor.PutF64(d2)
	}()
	// Start from the unweighted mean.
	for j := range w {
		w[j] = 1 / float64(m)
	}
	tensor.WeightedSumInto(cur, rows, w)
	iters := 0
	for iter := 0; iter < geoMedMaxIter; iter++ {
		iters++
		tensor.DistSqManyInto(d2, cur, rows)
		var wSum float64
		for j, v := range d2 {
			d := math.Sqrt(v)
			if d < geoMedEps {
				d = geoMedEps
			}
			w[j] = 1 / d
			wSum += w[j]
		}
		tensor.WeightedSumInto(next, rows, w)
		inv := 1 / wSum
		var shift, norm float64
		for i, v := range next {
			v *= inv
			next[i] = v
			d := v - cur[i]
			shift += d * d
			norm += v * v
		}
		cur, next = next, cur
		if math.Sqrt(shift) <= geoMedTol*(1+math.Sqrt(norm)) {
			break
		}
	}
	out := make([]float32, dim)
	tensor.ScaleF64To32(out, cur, 1)
	return out, iters, nil
}

// KrumSelect returns the index of the update with the best Krum score:
// the sum of squared distances to its n−f−2 nearest neighbours, with f
// the assumed Byzantine count. Blanchard et al., NeurIPS 2017.
func KrumSelect(updates []fl.Update, f int) (int, error) {
	scores, err := krumScores(updates, f)
	if err != nil {
		return -1, err
	}
	best, bestScore := 0, math.Inf(1)
	for i, s := range scores {
		if s < bestScore {
			best, bestScore = i, s
		}
	}
	return best, nil
}

// Krum returns the single best-scoring update vector.
func Krum(updates []fl.Update, f int) ([]float32, error) {
	idx, err := KrumSelect(updates, f)
	if err != nil {
		return nil, err
	}
	return slices.Clone(updates[idx].Weights), nil
}

// CoordinateMedian returns the coordinate-wise median of the update
// vectors (Yin et al., ICML 2018). Coordinates are independent, so the
// kernel layer splits them across workers; each worker selects into
// pooled column scratch, allocation-free in steady state. Selection
// replaces the previous full sort per coordinate — the k-th order
// statistic is the same value whichever algorithm finds it.
func CoordinateMedian(updates []fl.Update) ([]float32, error) {
	dim, err := checkUpdates(updates)
	if err != nil {
		return nil, err
	}
	n := len(updates)
	rows := rowsOf(updates)
	out := make([]float32, dim)
	tensor.ParallelBlocks(dim, func(lo, hi int) {
		col := tensor.GetF32(n)
		defer tensor.PutF32(col)
		for i := lo; i < hi; i++ {
			for j, row := range rows {
				col[j] = row[i]
			}
			hiMid := quickselect(col, n/2)
			if n%2 == 1 {
				out[i] = hiMid
			} else {
				// Lower middle is the max of the partition left of n/2.
				loMid := col[0]
				for _, v := range col[1 : n/2] {
					if v > loMid {
						loMid = v
					}
				}
				// Halved in float64: two float32 extremes overflow their
				// float32 sum. Rounding once to float32 is the float32
				// sum's bits halved everywhere that sum is finite.
				out[i] = float32((float64(loMid) + float64(hiMid)) / 2)
			}
		}
	})
	return out, nil
}

// quickselect partitions a in place so a[k] holds the k-th smallest
// element (everything left of k is ≤ a[k], everything right is ≥) and
// returns it. Pivots are picked by index, so the result — and the final
// permutation — is a pure function of the input.
func quickselect(a []float32, k int) float32 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[lo]
}

// TrimmedMean returns the coordinate-wise mean after removing the
// trim largest and trim smallest values per coordinate (Yin et al.).
// 2*trim must leave at least one value per coordinate.
func TrimmedMean(updates []fl.Update, trim int) ([]float32, error) {
	dim, err := checkUpdates(updates)
	if err != nil {
		return nil, err
	}
	n := len(updates)
	if trim < 0 || 2*trim >= n {
		return nil, fmt.Errorf("aggregate: trim %d too large for %d updates", trim, n)
	}
	rows := rowsOf(updates)
	out := make([]float32, dim)
	tensor.ParallelBlocks(dim, func(lo, hi int) {
		col := tensor.GetF32(n)
		defer tensor.PutF32(col)
		for i := lo; i < hi; i++ {
			for j, row := range rows {
				col[j] = row[i]
			}
			slices.Sort(col)
			var acc float64
			for _, v := range col[trim : n-trim] {
				acc += float64(v)
			}
			out[i] = float32(acc / float64(n-2*trim))
		}
	})
	return out, nil
}

// NormClip rescales every update whose L2 norm exceeds bound down to the
// bound (Sun et al., "Can you really backdoor federated learning?") and
// then applies FedAvg. It returns the clipped copy, leaving inputs
// untouched. Workers split the updates, and each scales its own in a
// plain loop: a dispatch nested in a pool chunk waits on pool goroutines
// that are all running outer chunks, and never returns.
func NormClip(updates []fl.Update, bound float64) ([]fl.Update, error) {
	if _, err := checkUpdates(updates); err != nil {
		return nil, err
	}
	out := make([]fl.Update, len(updates))
	tensor.ParallelBlocks(len(updates), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u := updates[i]
			norm := math.Sqrt(tensor.SumSqBlocked(u.Weights))
			cp := u
			if norm > bound && norm > 0 {
				s := float32(bound / norm)
				cp.Weights = make([]float32, len(u.Weights))
				for j, v := range u.Weights {
					cp.Weights[j] = v * s
				}
			}
			out[i] = cp
		}
	})
	return out, nil
}

// KrumScores returns every update's Krum score (sum of squared distances
// to its n−f−2 nearest neighbours). Only BenchmarkKrumScores calls it:
// make bench-guard holds Krum's score kernel to a ceiling of its own.
func KrumScores(updates []fl.Update, f int) ([]float64, error) {
	return krumScores(updates, f)
}

// krumScores returns every update's Krum score. The pairwise distance
// matrix comes from the cache-tiled kernel; per-update neighbour sorting
// then parallelizes over rows with pooled scratch.
func krumScores(updates []fl.Update, f int) ([]float64, error) {
	if _, err := checkUpdates(updates); err != nil {
		return nil, err
	}
	n := len(updates)
	k := n - f - 2
	if k < 1 {
		k = 1
	}
	scores := make([]float64, n)
	if n == 1 {
		return scores, nil
	}
	d2 := tensor.GetF64(n * n)
	defer tensor.PutF64(d2)
	tensor.PairwiseDistSq(d2, rowsOf(updates))
	kk := min(k, n-1)
	tensor.ParallelBlocks(n, func(lo, hi int) {
		dists := tensor.GetF64(n - 1)
		defer tensor.PutF64(dists)
		for i := lo; i < hi; i++ {
			idx := 0
			for j := 0; j < n; j++ {
				if j != i {
					dists[idx] = d2[i*n+j]
					idx++
				}
			}
			slices.Sort(dists)
			var s float64
			for _, d := range dists[:kk] {
				s += d
			}
			scores[i] = s
		}
	})
	return scores, nil
}
