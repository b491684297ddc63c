// Package dataset provides SynthDigits — a procedural, offline stand-in
// for MNIST — together with the Dirichlet federated partitioner the paper
// uses (Hsu et al., α = 10) and batching utilities.
//
// SynthDigits renders 28×28 grayscale digit images from 5×7 glyph
// bitmaps through a random affine transform (translation, rotation,
// scale), random stroke intensity, and additive pixel noise. It matches
// MNIST in every property the FedGuard pipeline depends on: 10 balanced
// classes, [0,1] pixel intensities, enough intra-class variation that
// classifiers and CVAEs must generalize, and class-conditional structure
// a CVAE decoder can learn to synthesize.
package dataset

import (
	"fmt"
	"math"

	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// Default image geometry, matching the paper's MNIST input (Table II).
const (
	ImageH     = 28
	ImageW     = 28
	NumClasses = 10
)

// Dataset is a labelled image collection stored contiguously.
type Dataset struct {
	// X holds images row-major as (N, 1, H, W) in [0,1].
	X []float32
	// Labels holds one class index per image.
	Labels []int
	H, W   int
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Labels) }

// ImageSize returns the per-image element count (1*H*W).
func (d *Dataset) ImageSize() int { return d.H * d.W }

// Batch gathers the examples at the given indices into a fresh
// (B, 1, H, W) tensor plus a label slice.
func (d *Dataset) Batch(indices []int) (*tensor.Tensor, []int) {
	return d.BatchInto(nil, nil, indices)
}

// BatchInto is Batch into caller-owned scratch: x is grown through
// tensor.Ensure and labels through append, every element of both is
// overwritten, and both are returned for the caller to keep for its next
// call. A loop over same-sized batches (and a smaller tail) therefore
// allocates on its first step only. nil for either allocates.
func (d *Dataset) BatchInto(x *tensor.Tensor, labels []int, indices []int) (*tensor.Tensor, []int) {
	return d.gather(tensor.Ensure(x, len(indices), 1, d.H, d.W), labels, indices)
}

// FlatBatchInto gathers examples into a (B, H*W) tensor — the dense
// layout the CVAE consumes — through caller-owned scratch (see BatchInto).
func (d *Dataset) FlatBatchInto(x *tensor.Tensor, labels []int, indices []int) (*tensor.Tensor, []int) {
	return d.gather(tensor.Ensure(x, len(indices), d.H*d.W), labels, indices)
}

// gather copies the indexed examples into x, already shaped to hold
// them, and their labels into labels[:0].
func (d *Dataset) gather(x *tensor.Tensor, labels []int, indices []int) (*tensor.Tensor, []int) {
	sz := d.ImageSize()
	labels = labels[:0]
	for bi, i := range indices {
		copy(x.Data[bi*sz:(bi+1)*sz], d.X[i*sz:(i+1)*sz])
		labels = append(labels, d.Labels[i])
	}
	return x, labels
}

// GenOptions controls SynthDigits rendering.
type GenOptions struct {
	// MaxShift is the maximum |translation| in pixels (default 3).
	MaxShift float64
	// MaxRotate is the maximum |rotation| in radians (default 0.26 ≈ 15°).
	MaxRotate float64
	// ScaleJitter is the maximum relative scale deviation (default 0.15).
	ScaleJitter float64
	// NoiseStd is the additive Gaussian pixel noise stddev (default 0.05).
	NoiseStd float64
	// MinInk is the minimum stroke intensity (default 0.75).
	MinInk float64
}

// DefaultGenOptions returns the standard SynthDigits jitter.
func DefaultGenOptions() GenOptions {
	return GenOptions{
		MaxShift:    3,
		MaxRotate:   0.26,
		ScaleJitter: 0.15,
		NoiseStd:    0.05,
		MinInk:      0.75,
	}
}

// Generate renders n SynthDigits examples with class-balanced labels
// (classes cycle 0..9) shuffled into random order, drawing all
// randomness from r: one permutation, then the samples one after another
// in generation order, so sample i's pixels depend on every draw before
// it. It is the all-wanted case of the walk GenerateSubset shares.
func Generate(n int, opts GenOptions, r *rng.RNG) *Dataset {
	return generate(n, opts, r, nil, n)
}

// GenerateSubset returns the compact dataset whose example j is example
// indices[j] of Generate(n, opts, r), bit for bit, without rendering the
// rest: an unwanted sample's draws are walked over (skipDigit), not
// transformed into pixels, and the walk stops after the last wanted
// sample — so r is left wherever that was, not where Generate leaves it.
// A networked client holds its partition this way, paying for the
// samples it trains on instead of the whole training set. An index
// outside [0, n) or listed twice is an error: with the full dataset a bad
// index panicked at the first Batch, a compact one would otherwise hide
// it behind a blank image labelled 0. An empty subset is legal.
func GenerateSubset(n int, opts GenOptions, r *rng.RNG, indices []int) (*Dataset, error) {
	// slot[idx] is where example idx lands in the compact dataset, -1 for
	// the examples nobody asked for.
	slot := make([]int32, n)
	for i := range slot {
		slot[i] = -1
	}
	for j, idx := range indices {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("dataset: index %d outside [0, %d)", idx, n)
		}
		if slot[idx] >= 0 {
			return nil, fmt.Errorf("dataset: index %d listed twice", idx)
		}
		slot[idx] = int32(j)
	}
	return generate(n, opts, r, slot, len(indices)), nil
}

// GenerateLabels returns Generate(n, opts, r).Labels for any opts — the
// labels are the permutation alone — leaving r just past that
// permutation. The networked server partitions over it: it deals indices
// out by class and never looks at a pixel.
func GenerateLabels(n int, r *rng.RNG) []int {
	labels := make([]int, n)
	for i, idx := range r.Perm(n) {
		labels[idx] = i % NumClasses
	}
	return labels
}

// generate is the one SynthDigits walk. Generation step i makes example
// perm[i] with class i mod 10; slot maps an example to its place in the
// returned dataset (nil: its own index, everything wanted; negative: not
// wanted) and wanted counts the places to fill.
func generate(n int, opts GenOptions, r *rng.RNG, slot []int32, wanted int) *Dataset {
	const sz = ImageH * ImageW
	d := &Dataset{
		X:      make([]float32, wanted*sz),
		Labels: make([]int, wanted),
		H:      ImageH,
		W:      ImageW,
	}
	perm := r.Perm(n)
	for i := 0; i < n && wanted > 0; i++ {
		class := i % NumClasses
		j := perm[i]
		if slot != nil {
			j = int(slot[j])
		}
		if j < 0 {
			skipDigit(opts, r)
			continue
		}
		d.Labels[j] = class
		RenderDigit(d.X[j*sz:(j+1)*sz], class, opts, r)
		wanted--
	}
	return d
}

// RenderDigit renders one jittered digit of the given class into dst,
// which must hold H*W elements. Exposed so tests and examples can render
// individual digits.
func RenderDigit(dst []float32, class int, opts GenOptions, r *rng.RNG) {
	if class < 0 || class >= NumClasses {
		panic(fmt.Sprintf("dataset: class %d out of range", class))
	}
	if len(dst) < ImageH*ImageW {
		panic("dataset: RenderDigit destination too small")
	}
	// The glyph occupies roughly 20 px of the 28 px canvas.
	baseCell := 20.0 / float64(glyphH)
	scale := baseCell * (1 + opts.ScaleJitter*(2*r.Float64()-1))
	theta := opts.MaxRotate * (2*r.Float64() - 1)
	tx := opts.MaxShift * (2*r.Float64() - 1)
	ty := opts.MaxShift * (2*r.Float64() - 1)
	ink := float32(opts.MinInk + (1-opts.MinInk)*r.Float64())
	sin, cos := math.Sin(theta), math.Cos(theta)
	cx, cy := float64(ImageW)/2+tx, float64(ImageH)/2+ty
	gcx, gcy := float64(glyphW)/2, float64(glyphH)/2

	for y := 0; y < ImageH; y++ {
		for x := 0; x < ImageW; x++ {
			// Inverse affine: canvas -> glyph coordinates.
			dx := float64(x) + 0.5 - cx
			dy := float64(y) + 0.5 - cy
			ux := (cos*dx + sin*dy) / scale
			uy := (-sin*dx + cos*dy) / scale
			v := glyphSample(class, ux+gcx-0.5, uy+gcy-0.5) * ink
			if opts.NoiseStd > 0 {
				v += float32(opts.NoiseStd * r.NormFloat64())
			}
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			dst[y*ImageW+x] = v
		}
	}
}

// skipDigit advances r by exactly the draws one RenderDigit call makes
// with the same opts (they do not depend on the class) and renders
// nothing. Keep it in step with RenderDigit: a draw added there and not
// here shifts every later sample of a GenerateSubset walk.
func skipDigit(opts GenOptions, r *rng.RNG) {
	for i := 0; i < 5; i++ { // scale, theta, tx, ty, ink
		r.Float64()
	}
	if opts.NoiseStd > 0 {
		r.SkipNormFloat64(ImageH * ImageW)
	}
}

// PartitionDirichlet splits dataset indices among nClients following the
// per-class Dirichlet procedure of Hsu et al. (reference [28] of the
// paper): for every class, client shares are drawn from Dir(alpha) and
// the class's examples are dealt out accordingly. Every index appears in
// exactly one partition. alpha = 10 reproduces the paper's mild
// heterogeneity; smaller alpha is more skewed.
func PartitionDirichlet(d *Dataset, nClients int, alpha float64, r *rng.RNG) [][]int {
	if nClients <= 0 {
		panic("dataset: PartitionDirichlet with non-positive client count")
	}
	byClass := make([][]int, NumClasses)
	for i, l := range d.Labels {
		byClass[l] = append(byClass[l], i)
	}
	parts := make([][]int, nClients)
	for _, idxs := range byClass {
		if len(idxs) == 0 {
			continue
		}
		r.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
		shares := r.Dirichlet(alpha, nClients)
		counts := apportion(shares, len(idxs))
		off := 0
		for c, cnt := range counts {
			parts[c] = append(parts[c], idxs[off:off+cnt]...)
			off += cnt
		}
	}
	// Shuffle within each partition so local batches mix classes.
	for _, p := range parts {
		r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	}
	return parts
}

// apportion converts fractional shares into integer counts summing to
// total using the largest-remainder method.
func apportion(shares []float64, total int) []int {
	counts := make([]int, len(shares))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(shares))
	assigned := 0
	for i, s := range shares {
		exact := s * float64(total)
		c := int(exact)
		counts[i] = c
		assigned += c
		rems[i] = rem{i, exact - float64(c)}
	}
	// Insertion sort by descending remainder (len is small: #clients).
	for i := 1; i < len(rems); i++ {
		for j := i; j > 0 && rems[j].frac > rems[j-1].frac; j-- {
			rems[j], rems[j-1] = rems[j-1], rems[j]
		}
	}
	for k := 0; assigned < total; k++ {
		counts[rems[k%len(rems)].idx]++
		assigned++
	}
	return counts
}

// Batches yields mini-batch index slices covering all of indices in
// shuffled order. The final batch may be smaller. It returns the batches
// eagerly as a slice of slices.
func Batches(indices []int, batchSize int, r *rng.RNG) [][]int {
	if batchSize <= 0 {
		panic("dataset: non-positive batch size")
	}
	shuffled := append([]int(nil), indices...)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var out [][]int
	for off := 0; off < len(shuffled); off += batchSize {
		end := off + batchSize
		if end > len(shuffled) {
			end = len(shuffled)
		}
		out = append(out, shuffled[off:end])
	}
	return out
}

// Range returns [0, 1, ..., n-1], a convenience for whole-dataset index
// lists.
func Range(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
