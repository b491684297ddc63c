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

// Every operator must reject a ragged cohort with an error instead of
// indexing out of bounds.
func TestAllOpsRejectMismatchedDims(t *testing.T) {
	ragged := []fl.Update{upd(0, 1, 1, 2, 3), upd(1, 1, 1, 2)}
	ops := map[string]func() error{
		"WeightedMean":     func() error { _, err := WeightedMean(ragged); return err },
		"GeometricMedian":  func() error { _, err := GeometricMedian(ragged); return err },
		"CoordinateMedian": func() error { _, err := CoordinateMedian(ragged); return err },
		"TrimmedMean":      func() error { _, err := TrimmedMean(ragged, 0); return err },
		"NormClip":         func() error { _, err := NormClip(ragged, 1); return err },
		"KrumScores":       func() error { _, err := KrumScores(ragged, 0); return err },
		"Krum":             func() error { _, err := Krum(ragged, 0); return err },
	}
	for name, op := range ops {
		if err := op(); err == nil {
			t.Errorf("%s accepted mismatched update dimensions", name)
		}
	}
}

// Zero- and negative-sample updates contribute with weight 1 instead of
// vanishing (or poisoning the total with zeros).
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
