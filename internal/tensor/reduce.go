package tensor

import "fmt"

// Deterministic blocked-reduction kernels for robust aggregation.
//
// The aggregation operators (FedAvg, GeoMed, Krum, coordinate median,
// trimmed mean) are reductions over m update vectors of model dimension
// d. Making them fast without breaking the repo's determinism contract
// (same seed → byte-identical FinalWeights, regardless of parallelism)
// requires the same discipline the matmul kernels use:
//
//   - Parallelism only ever splits *independently owned outputs* —
//     coordinates, rows, or (i,j) pairs — across workers. No two workers
//     touch the same accumulator, so the partitioning cannot affect the
//     result.
//   - Every accumulation runs in a fixed order that does not depend on
//     the worker count: squared distances accumulate over coordinate
//     blocks of exactly ReduceBlock elements in ascending block order,
//     and within a block over sixteen fixed lanes combined by a fixed
//     tree (see distSqTail16 / the AVX kernel, which implement the same
//     arithmetic instruction for instruction).
//
// The blocked lane order is the canonical summation order: the pure-Go
// fallback and the AVX kernel produce bit-identical float64 sums, so
// builds with and without the `purego` tag agree too.

// ReduceBlock is the coordinate block size of the blocked reductions,
// in elements. It is a determinism constant, not a tuning knob: changing
// it changes float64 sums. 2048 float32s = 8KiB per vector per block,
// small enough that a 50-update pairwise pass stays cache-resident.
const ReduceBlock = 2048

// reduceLanes is the number of independent accumulator lanes inside a
// block, matching the four 4-wide YMM accumulators of the AVX kernel.
const reduceLanes = 16

// rangeFunc adapts a closure to RangeRunner for the blocked kernels.
// The func value escapes once per kernel call (a handful per round),
// not per element.
type rangeFunc func(lo, hi int)

func (f rangeFunc) RunRange(lo, hi int) { f(lo, hi) }

// ParallelBlocks splits [0, n) into at most as many contiguous chunks as
// there are free compute slots and runs f on each, waiting for completion. f must own its output
// range exclusively; see the package comment for the determinism
// contract.
func ParallelBlocks(n int, f func(lo, hi int)) { ParallelRanges(rangeFunc(f), n) }

// distSqBlock returns Σ (a[i]-b[i])² over one coordinate block
// (len(a) <= ReduceBlock) in the canonical 16-lane order.
func distSqBlock(a, b []float32) float64 {
	n16 := len(a) &^ (reduceLanes - 1)
	var s float64
	if n16 > 0 {
		if useAVX {
			s = distSq16AVX(&a[0], &b[0], n16)
		} else {
			s = distSq16Go(a[:n16], b[:n16])
		}
	}
	var tail float64
	for i := n16; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		tail += d * d
	}
	return s + tail
}

// distSqMixedBlock is distSqBlock with a float64 left operand — the
// Weiszfeld iterate against a float32 update row.
func distSqMixedBlock(a []float64, b []float32) float64 {
	n16 := len(a) &^ (reduceLanes - 1)
	var s float64
	if n16 > 0 {
		if useAVX {
			s = distSqMixed16AVX(&a[0], &b[0], n16)
		} else {
			s = distSqMixed16Go(a[:n16], b[:n16])
		}
	}
	var tail float64
	for i := n16; i < len(a); i++ {
		d := a[i] - float64(b[i])
		tail += d * d
	}
	return s + tail
}

// sumSqBlock returns Σ a[i]² over one coordinate block in the canonical
// 16-lane order. Pure Go on every build: it runs once per update per
// round (norm clipping), so it needs the canonical order but not the
// AVX throughput.
func sumSqBlock(a []float32) float64 {
	n16 := len(a) &^ (reduceLanes - 1)
	var lane [reduceLanes]float64
	for i := 0; i < n16; i += reduceLanes {
		for l := 0; l < reduceLanes; l++ {
			v := float64(a[i+l])
			lane[l] += v * v
		}
	}
	s := combine16(&lane)
	var tail float64
	for i := n16; i < len(a); i++ {
		v := float64(a[i])
		tail += v * v
	}
	return s + tail
}

// combine16 folds sixteen lane sums with the fixed tree the AVX kernel's
// horizontal reduction implements: lanes pair up as four YMM registers
// (l, l+4, l+8, l+12 share a register slot), registers combine pairwise,
// then the 4-wide result folds (low+high, then adjacent).
func combine16(lane *[reduceLanes]float64) float64 {
	u0 := (lane[0] + lane[4]) + (lane[8] + lane[12])
	u1 := (lane[1] + lane[5]) + (lane[9] + lane[13])
	u2 := (lane[2] + lane[6]) + (lane[10] + lane[14])
	u3 := (lane[3] + lane[7]) + (lane[11] + lane[15])
	return (u0 + u2) + (u1 + u3)
}

// distSq16Go is the pure-Go mirror of distSq16AVX: identical lane
// assignment and combine tree, so the two paths are bit-identical.
func distSq16Go(a, b []float32) float64 {
	var lane [reduceLanes]float64
	for i := 0; i < len(a); i += reduceLanes {
		for l := 0; l < reduceLanes; l++ {
			d := float64(a[i+l]) - float64(b[i+l])
			lane[l] += d * d
		}
	}
	return combine16(&lane)
}

// distSqMixed16Go mirrors distSqMixed16AVX.
func distSqMixed16Go(a []float64, b []float32) float64 {
	var lane [reduceLanes]float64
	for i := 0; i < len(a); i += reduceLanes {
		for l := 0; l < reduceLanes; l++ {
			d := a[i+l] - float64(b[i+l])
			lane[l] += d * d
		}
	}
	return combine16(&lane)
}

// DistSqMixedBlocked returns the squared Euclidean distance between a
// float64 and a float32 vector of equal length in the canonical blocked
// order: coordinate blocks of ReduceBlock elements summed in ascending
// order, sixteen lanes per block.
func DistSqMixedBlocked(a []float64, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: DistSqMixedBlocked length mismatch %d vs %d", len(a), len(b)))
	}
	var total float64
	for lo := 0; lo < len(a); lo += ReduceBlock {
		hi := min(lo+ReduceBlock, len(a))
		total += distSqMixedBlock(a[lo:hi], b[lo:hi])
	}
	return total
}

// SumSqBlocked returns Σ a[i]² in the canonical blocked order.
func SumSqBlocked(a []float32) float64 {
	var total float64
	for lo := 0; lo < len(a); lo += ReduceBlock {
		hi := min(lo+ReduceBlock, len(a))
		total += sumSqBlock(a[lo:hi])
	}
	return total
}

// pairIdx names one (i, j) entry of a pairwise distance matrix.
type pairIdx struct{ i, j int32 }

// pairRunner accumulates one coordinate block of every pair's squared
// distance. Workers split the pair list; each (i, j) cell is owned by
// exactly one worker, and blocks arrive in ascending order because the
// block loop in PairwiseDistSq is serial.
type pairRunner struct {
	dst    []float64
	vecs   [][]float32
	pairs  []pairIdx
	n      int
	lo, hi int
}

func (p *pairRunner) RunRange(plo, phi int) {
	for _, pr := range p.pairs[plo:phi] {
		i, j := int(pr.i), int(pr.j)
		p.dst[i*p.n+j] += distSqBlock(p.vecs[i][p.lo:p.hi], p.vecs[j][p.lo:p.hi])
	}
}

// PairwiseDistSq fills dst (row-major n×n, n = len(vecs)) with the
// squared Euclidean distances between every pair of vectors. The
// diagonal is zero and the matrix is exactly symmetric (each pair is
// computed once and mirrored). The outer loop walks coordinate blocks
// serially while workers split the pair list, so the whole pass touches
// each block of every vector once — cache-resident for typical cohort
// sizes — and the accumulation order is independent of the worker count.
func PairwiseDistSq(dst []float64, vecs [][]float32) {
	n := len(vecs)
	if len(dst) != n*n {
		panic(fmt.Sprintf("tensor: PairwiseDistSq dst length %d, want %d", len(dst), n*n))
	}
	for i := range dst {
		dst[i] = 0
	}
	if n < 2 {
		return
	}
	dim := len(vecs[0])
	for _, v := range vecs {
		if len(v) != dim {
			panic(fmt.Sprintf("tensor: PairwiseDistSq ragged input: %d vs %d", len(v), dim))
		}
	}
	pairs := make([]pairIdx, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pairIdx{int32(i), int32(j)})
		}
	}
	pr := &pairRunner{dst: dst, vecs: vecs, pairs: pairs, n: n}
	for lo := 0; lo < dim; lo += ReduceBlock {
		pr.lo, pr.hi = lo, min(lo+ReduceBlock, dim)
		ParallelRanges(pr, len(pairs))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dst[j*n+i] = dst[i*n+j]
		}
	}
}

// DistSqManyInto fills dst[j] with the canonical blocked squared
// distance between a and rows[j], parallelizing over rows (each dst[j]
// is owned by one worker).
func DistSqManyInto(dst []float64, a []float64, rows [][]float32) {
	if len(dst) != len(rows) {
		panic(fmt.Sprintf("tensor: DistSqManyInto dst length %d, want %d", len(dst), len(rows)))
	}
	ParallelBlocks(len(rows), func(lo, hi int) {
		for j := lo; j < hi; j++ {
			dst[j] = DistSqMixedBlocked(a, rows[j])
		}
	})
}

// WeightedSumInto sets dst[i] = Σ_j w[j]·rows[j][i]. Workers split the
// coordinate range; within a chunk rows accumulate in ascending j order,
// so the sum for every coordinate is ordered identically at any worker
// count. Rows are never skipped on w[j] == 0: skipping would change
// signed-zero results.
func WeightedSumInto(dst []float64, rows [][]float32, w []float64) {
	if len(rows) != len(w) {
		panic(fmt.Sprintf("tensor: WeightedSumInto %d rows, %d weights", len(rows), len(w)))
	}
	for _, r := range rows {
		if len(r) != len(dst) {
			panic(fmt.Sprintf("tensor: WeightedSumInto ragged row: %d vs %d", len(r), len(dst)))
		}
	}
	ParallelBlocks(len(dst), func(lo, hi int) {
		d := dst[lo:hi]
		for i := range d {
			d[i] = 0
		}
		for j, row := range rows {
			wj := w[j]
			r := row[lo:hi]
			for i, v := range r {
				d[i] += wj * float64(v)
			}
		}
	})
}

// ScaleF64To32 sets dst[i] = float32(src[i] * s), parallel over
// coordinates.
func ScaleF64To32(dst []float32, src []float64, s float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: ScaleF64To32 length mismatch %d vs %d", len(dst), len(src)))
	}
	ParallelBlocks(len(dst), func(lo, hi int) {
		d, sc := dst[lo:hi], src[lo:hi]
		for i, v := range sc {
			d[i] = float32(v * s)
		}
	})
}

// LerpInto sets dst[i] = a[i] + t*(b[i] - a[i]) — the server's
// ψ ← ψ + lr·(agg − ψ) update as a kernel. dst may alias a or b.
// Purely element-wise, so worker count cannot affect results.
func LerpInto(dst, a, b []float32, t float32) {
	if len(dst) != len(a) || len(dst) != len(b) {
		panic(fmt.Sprintf("tensor: LerpInto length mismatch %d, %d, %d", len(dst), len(a), len(b)))
	}
	ParallelBlocks(len(dst), func(lo, hi int) {
		d, av, bv := dst[lo:hi], a[lo:hi], b[lo:hi]
		for i := range d {
			d[i] = av[i] + t*(bv[i]-av[i])
		}
	})
}
