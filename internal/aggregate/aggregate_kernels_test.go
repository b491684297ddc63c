package aggregate

import (
	"math"
	"testing"

	"fedguard/internal/fl"
	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

func kernelUpdates(seed uint64, n, dim int) []fl.Update {
	r := rng.New(seed)
	ups := make([]fl.Update, n)
	for i := range ups {
		w := make([]float32, dim)
		r.FillNormal(w, 0, 0.5)
		ups[i] = fl.Update{ClientID: i, NumSamples: 50 + i, Weights: w}
	}
	return ups
}

// Zero- and negative-sample updates contribute with weight 1 instead of
// vanishing (or poisoning the total with zeros): an empty Dirichlet
// partition is a zero count.
func TestWeightedMeanZeroSampleCounts(t *testing.T) {
	out, err := WeightedMean([]fl.Update{
		upd(0, 0, 2),  // weight 1
		upd(1, -5, 4), // weight 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 3 {
		t.Fatalf("mean with zero sample counts = %v, want 3", out[0])
	}
}

func TestTrimmedMeanBoundary(t *testing.T) {
	four := []fl.Update{upd(0, 1, 1), upd(1, 1, 2), upd(2, 1, 3), upd(3, 1, 4)}
	if _, err := TrimmedMean(four, 2); err == nil {
		t.Fatal("TrimmedMean accepted 2*trim == len(updates)")
	}
	if _, err := TrimmedMean(four, -1); err == nil {
		t.Fatal("TrimmedMean accepted negative trim")
	}
	out, err := TrimmedMean(four, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2.5 {
		t.Fatalf("TrimmedMean(trim=1) = %v, want 2.5", out[0])
	}
}

// TestTrimmedMeanZeroIsMean: trimming nothing is the plain coordinate
// mean — each column summed in float64, divided by the count and rounded
// once to float32 (the sums here are exact, so the sorted order
// TrimmedMean adds in cannot matter). It also meets WeightedMean at
// equal sample counts, which scales its float64 sum by the rounded
// reciprocal of the total rather than dividing: within one float32 ulp
// (on these inputs they are bit-equal; the log counts the coordinates
// that are not).
func TestTrimmedMeanZeroIsMean(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16} {
		unequal := 0
		ups := kernelUpdates(uint64(40+n), n, 3000)
		for i := range ups {
			ups[i].NumSamples = 37
		}
		got, err := TrimmedMean(ups, 0)
		if err != nil {
			t.Fatal(err)
		}
		fedAvg, err := WeightedMean(ups)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			var sum float64
			for _, u := range ups {
				sum += float64(u.Weights[i])
			}
			if want := float32(sum / float64(n)); math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("n=%d coordinate %d: TrimmedMean(u, 0) = %v, column mean %v", n, i, got[i], want)
			}
			if d := int32(math.Float32bits(got[i]) - math.Float32bits(fedAvg[i])); d < -1 || d > 1 {
				t.Errorf("n=%d coordinate %d: TrimmedMean(u, 0) = %v, WeightedMean %v (%d ulp)", n, i, got[i], fedAvg[i], d)
			} else if d != 0 {
				unequal++
			}
		}
		t.Logf("n=%d: %d of %d coordinates differ from WeightedMean by one ulp", n, unequal, len(got))
	}
}

// Regression for the scale-aware Weiszfeld tolerance: at 1e7-magnitude
// weights, float64 noise sits around 1e-2 absolute, so the old absolute
// tol=1e-6 check could never fire and every call burned all 50 sweeps.
// The relative check must converge early and still land on the median.
func TestGeometricMedianLargeMagnitude(t *testing.T) {
	const scale = 1e7
	r := rng.New(11)
	ups := make([]fl.Update, 9)
	for i := range ups {
		w := make([]float32, 64)
		r.FillNormal(w, scale, scale/1000)
		ups[i] = fl.Update{ClientID: i, NumSamples: 1, Weights: w}
	}
	out, iters, err := geometricMedian(ups)
	if err != nil {
		t.Fatal(err)
	}
	if iters >= geoMedMaxIter {
		t.Fatalf("GeoMed at scale %g used all %d iterations: tolerance is not scale-aware", scale, iters)
	}
	for i, v := range out {
		if math.Abs(float64(v)-scale) > scale/100 {
			t.Fatalf("GeoMed[%d] = %g, want ≈ %g", i, v, scale)
		}
	}
	// Small-magnitude inputs must converge early too (sanity that the
	// relative form didn't loosen the small-scale behaviour).
	_, iters, err = geometricMedian(kernelUpdates(12, 9, 64))
	if err != nil {
		t.Fatal(err)
	}
	if iters >= geoMedMaxIter {
		t.Fatalf("GeoMed at unit scale used all %d iterations", iters)
	}
}

// The kernel determinism contract at the operator level: byte-identical
// outputs across worker counts, including dimensions that exercise
// partial blocks and partial 16-lanes.
func TestOperatorsDeterministicAcrossWorkers(t *testing.T) {
	defer tensor.SetWorkers(tensor.Workers())
	ups := kernelUpdates(13, 12, tensor.ReduceBlock+37)
	type result struct {
		name string
		out  []float32
	}
	runAll := func() []result {
		var rs []result
		wm, err := WeightedMean(ups)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, result{"WeightedMean", wm})
		gm, err := GeometricMedian(ups)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, result{"GeometricMedian", gm})
		km, err := Krum(ups, 3)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, result{"Krum", km})
		cm, err := CoordinateMedian(ups)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, result{"CoordinateMedian", cm})
		tm, err := TrimmedMean(ups, 2)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, result{"TrimmedMean", tm})
		return rs
	}
	tensor.SetWorkers(1)
	ref := runAll()
	for _, workers := range []int{4, 64} {
		tensor.SetWorkers(workers)
		got := runAll()
		for i, r := range got {
			for j, v := range r.out {
				if v != ref[i].out[j] {
					t.Fatalf("%s: coord %d differs between workers=1 and workers=%d (%x vs %x)",
						r.name, j, workers, ref[i].out[j], v)
				}
			}
		}
	}
}
