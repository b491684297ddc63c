package attack

import (
	"math"
	"testing"

	"fedguard/internal/dataset"
	"fedguard/internal/rng"
)

// Compile-time checks that the extension attacks implement the hooks
// the federation dispatches on.
var (
	_ CohortAware   = (*ALIE)(nil)
	_ CohortAware   = (*IPM)(nil)
	_ CohortAware   = (*MinMax)(nil)
	_ AGRTailored   = (*MinMax)(nil)
	_ CVAEDataAware = (*DecoderForge)(nil)
	_ GlobalAware   = (*ScaledBoost)(nil)
)

func cloneDrafts(drafts [][]float32) [][]float32 {
	out := make([][]float32, len(drafts))
	for i, d := range drafts {
		out[i] = append([]float32(nil), d...)
	}
	return out
}

func TestALIECohort(t *testing.T) {
	a := NewALIE()
	drafts := [][]float32{
		{1, 0, 2},
		{3, 0, 4},
		{2, 0, 6},
	}
	// Per-coordinate mean and population std of the drafts above.
	mu := []float64{2, 0, 4}
	sd := []float64{math.Sqrt(2.0 / 3.0), 0, math.Sqrt(8.0 / 3.0)}
	a.PoisonCohort(drafts, []int{1, 2, 3}, rng.New(1))
	for k, d := range drafts {
		for i := range d {
			want := mu[i] - 1.5*sd[i] // z = 1.5
			if diff := math.Abs(float64(d[i]) - want); diff > 1e-6 {
				t.Fatalf("draft %d coord %d = %v, want %v", k, i, d[i], want)
			}
		}
	}
	// All colluders submit the same vector.
	for k := 1; k < len(drafts); k++ {
		for i := range drafts[k] {
			if drafts[k][i] != drafts[0][i] {
				t.Fatal("colluders submitted different vectors")
			}
		}
	}
}

func TestALIESoloFallbackIsNoop(t *testing.T) {
	a := NewALIE()
	w := []float32{1, -2, 3}
	a.PoisonModel(w, rng.New(1))
	if w[0] != 1 || w[1] != -2 || w[2] != 3 {
		t.Fatalf("solo ALIE modified the draft: %v", w)
	}
	// A cohort of one has zero spread: μ − z·0 = the draft itself.
	solo := [][]float32{{1, -2, 3}}
	a.PoisonCohort(solo, []int{0}, rng.New(1))
	if solo[0][0] != 1 || solo[0][1] != -2 || solo[0][2] != 3 {
		t.Fatalf("cohort-of-one ALIE moved the draft: %v", solo[0])
	}
}

func TestIPMCohort(t *testing.T) {
	a := NewIPM()
	drafts := [][]float32{
		{1, -2},
		{3, -4},
	}
	a.PoisonCohort(drafts, []int{0, 1}, rng.New(1))
	// μ = (2, -3); every draft becomes −ε·μ = −5·μ = (−10, 15).
	for k, d := range drafts {
		if d[0] != -10 || d[1] != 15 {
			t.Fatalf("draft %d = %v, want [-10 15]", k, d)
		}
	}
}

func TestIPMSoloFallback(t *testing.T) {
	a := NewIPM()
	w := []float32{1, -2}
	a.PoisonModel(w, rng.New(1))
	// The cohort of one is the draft itself: −5·w.
	if w[0] != -5 || w[1] != 10 {
		t.Fatalf("solo IPM gave %v, want [-5 10]", w)
	}
}

func TestMinMaxDistanceCriterion(t *testing.T) {
	a := NewMinMax("FedAvg")
	drafts := [][]float32{
		{1, 1},
		{1.2, 0.9},
		{0.8, 1.1},
	}
	orig := cloneDrafts(drafts)
	a.PoisonCohort(drafts, []int{0, 1, 2}, rng.New(1))

	// All colluders submit the same crafted vector.
	m := drafts[0]
	for k := 1; k < len(drafts); k++ {
		for i := range drafts[k] {
			if drafts[k][i] != m[i] {
				t.Fatal("colluders submitted different vectors")
			}
		}
	}
	// The crafted vector satisfies the distance criterion against the
	// original drafts: no farther from any draft than they are from each
	// other.
	maxPair := maxPairwiseDistSq(orig)
	var worst float64
	for _, d := range orig {
		if dd := distSq(m, d); dd > worst {
			worst = dd
		}
	}
	if worst > maxPair*(1+1e-9) {
		t.Fatalf("crafted update violates the distance criterion: %v > %v", worst, maxPair)
	}
	// And it actually deviates from the mean (γ > 0).
	mu := cohortMean(orig)
	var dev float64
	for i, v := range mu {
		d := float64(m[i]) - v
		dev += d * d
	}
	if dev == 0 {
		t.Fatal("min-max found no surviving deviation on a spread cohort")
	}
}

// TestMinMaxSearchResolution pins the search's start and length. The
// drafts (1.5, 0.5) and (0.5, 1.5) have mean μ = (1, 1), and each sits
// 1/√2 from μ, at right angles to p, so μ + γ·p survives the distance
// criterion (largest pairwise distance² 2) exactly while γ² + ½ ≤ 2,
// that is γ ≤ √1.5. Halving steps from 4·√2 + 1 over twenty iterations
// land within 2·(4·√2 + 1)/2²⁰ below that bound.
func TestMinMaxSearchResolution(t *testing.T) {
	drafts := [][]float32{{1.5, 0.5}, {0.5, 1.5}}
	NewMinMax("").PoisonCohort(drafts, []int{0, 1}, rng.New(1))
	gamma := math.Hypot(float64(drafts[0][0])-1, float64(drafts[0][1])-1)
	limit := math.Sqrt(1.5)
	if slack := 2 * (4*math.Sqrt(2) + 1) / (1 << 20); gamma > limit*(1+1e-6) || gamma < limit-slack {
		t.Fatalf("γ = %.9f, want within %.2g below %.9f", gamma, slack, limit)
	}
}

func TestMinMaxKrumOracle(t *testing.T) {
	a := NewMinMax("Krum")
	drafts := [][]float32{
		{1, 1}, {1.1, 0.95}, {0.9, 1.05}, {1.05, 1.1},
	}
	orig := cloneDrafts(drafts)
	a.PoisonCohort(drafts, []int{0, 1, 2, 3}, rng.New(1))
	if !krumSurvives(drafts[0], orig) {
		t.Fatal("crafted update fails its own Krum oracle")
	}
}

func TestMinMaxTailorTo(t *testing.T) {
	a := NewMinMax("")
	a.TailorTo("Krum")
	if a.Strategy != "Krum" {
		t.Fatalf("TailorTo left Strategy = %q", a.Strategy)
	}
}

func TestMinMaxSoloFallbackIsNoop(t *testing.T) {
	a := NewMinMax("Krum")
	w := []float32{1, 2}
	a.PoisonModel(w, rng.New(1))
	if w[0] != 1 || w[1] != 2 {
		t.Fatalf("solo min-max modified the draft: %v", w)
	}
	solo := [][]float32{{1, 2}}
	a.PoisonCohort(solo, []int{0}, rng.New(1))
	if solo[0][0] != 1 || solo[0][1] != 2 {
		t.Fatalf("cohort-of-one min-max moved the draft: %v", solo[0])
	}
}

func TestMinMaxZeroMeanDegradesGracefully(t *testing.T) {
	// Symmetric drafts cancel to a zero mean; the attack must still pick
	// a direction and terminate.
	a := NewMinMax("")
	drafts := [][]float32{{1, -1}, {-1, 1}}
	a.PoisonCohort(drafts, []int{0, 1}, rng.New(1))
	for i := range drafts[0] {
		if drafts[0][i] != drafts[1][i] {
			t.Fatal("colluders diverged on a zero-mean cohort")
		}
	}
}

func TestMinMaxDeterministic(t *testing.T) {
	mk := func() [][]float32 {
		return [][]float32{{1, 1}, {1.3, 0.8}, {0.7, 1.2}}
	}
	d1, d2 := mk(), mk()
	NewMinMax("Krum").PoisonCohort(d1, []int{0, 1, 2}, rng.New(1))
	NewMinMax("Krum").PoisonCohort(d2, []int{0, 1, 2}, rng.New(99))
	for k := range d1 {
		for i := range d1[k] {
			if d1[k][i] != d2[k][i] {
				t.Fatal("min-max depends on the RNG stream")
			}
		}
	}
}

func TestDecoderForgeSplitViews(t *testing.T) {
	a := NewDecoderForge()
	if a.Name() != "decoder-forge" {
		t.Fatalf("Name() = %q", a.Name())
	}
	d := dataset.Generate(200, dataset.DefaultGenOptions(), rng.New(11))
	idx := dataset.Range(d.Len())

	// Classifier view: the targeted one-directional flip (5 → 7 only;
	// 7s stay 7s, everything else untouched).
	flipped, _ := a.PoisonData(d, idx)
	var flips int
	for i := range d.Labels {
		switch {
		case d.Labels[i] == 5:
			if flipped.Labels[i] != 7 {
				t.Fatalf("label 5 -> %d, want 7", flipped.Labels[i])
			}
			flips++
		case flipped.Labels[i] != d.Labels[i]:
			t.Fatalf("label %d -> %d, want untouched", d.Labels[i], flipped.Labels[i])
		}
	}
	if flips == 0 {
		t.Fatal("decoder-forge classifier view is unpoisoned (no 5s in the sample?)")
	}
	// Source dataset untouched, pixels shared.
	if &flipped.X[0] != &d.X[0] {
		t.Fatal("decoder-forge copied pixel data unnecessarily")
	}

	// CVAE view: bit-for-bit the clean partition, same dataset object.
	clean, cleanIdx := a.PoisonCVAEData(d, idx)
	if clean != d {
		t.Fatal("decoder-forge CVAE view is not the clean dataset")
	}
	if len(cleanIdx) != len(idx) {
		t.Fatal("decoder-forge CVAE view changed the index list")
	}

	// Model hook is identity: the poisoning lives in the training data.
	w := []float32{1, 2}
	a.PoisonModel(w, rng.New(1))
	if w[0] != 1 || w[1] != 2 {
		t.Fatalf("decoder-forge modified weights: %v", w)
	}
}
