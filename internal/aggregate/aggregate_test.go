package aggregate

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"fedguard/internal/fl"
	"fedguard/internal/rng"
)

func upd(id int, n int, w ...float32) fl.Update {
	return fl.Update{ClientID: id, NumSamples: n, Weights: w}
}

func TestWeightedMeanEqualWeights(t *testing.T) {
	out, err := WeightedMean([]fl.Update{
		upd(0, 10, 1, 2),
		upd(1, 10, 3, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 || out[1] != 3 {
		t.Fatalf("WeightedMean = %v", out)
	}
}

func TestWeightedMeanRespectsSampleCounts(t *testing.T) {
	out, err := WeightedMean([]fl.Update{
		upd(0, 30, 0),
		upd(1, 10, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 {
		t.Fatalf("weighted mean = %v, want 1", out[0])
	}
}

func TestWeightedMeanOfIdenticalIsIdentity(t *testing.T) {
	r := rng.New(1)
	f := func(k uint8) bool {
		n := int(k%10) + 1
		w := make([]float32, 20)
		r.FillNormal(w, 0, 1)
		ups := make([]fl.Update, n)
		for i := range ups {
			ups[i] = fl.Update{ClientID: i, NumSamples: i + 1, Weights: w}
		}
		out, err := WeightedMean(ups)
		if err != nil {
			return false
		}
		for i := range w {
			if math.Abs(float64(out[i]-w[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedMeanErrors(t *testing.T) {
	if _, err := WeightedMean(nil); !errors.Is(err, ErrNoUpdates) {
		t.Fatalf("empty updates: err = %v, want ErrNoUpdates", err)
	}
}

func TestGeometricMedianOfSinglePoint(t *testing.T) {
	out, err := GeometricMedian([]fl.Update{upd(0, 1, 5, -3)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(out[0]-5)) > 1e-4 || math.Abs(float64(out[1]+3)) > 1e-4 {
		t.Fatalf("GeoMed of one point = %v", out)
	}
}

func TestGeometricMedianRobustToOutlier(t *testing.T) {
	// 4 points near the origin, 1 extreme outlier: the geometric median
	// stays near the origin while the mean is dragged away.
	ups := []fl.Update{
		upd(0, 1, 0.1, 0),
		upd(1, 1, -0.1, 0),
		upd(2, 1, 0, 0.1),
		upd(3, 1, 0, -0.1),
		upd(4, 1, 1000, 1000),
	}
	gm, err := GeometricMedian(ups)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(gm[0])) > 1 || math.Abs(float64(gm[1])) > 1 {
		t.Fatalf("GeoMed dragged to %v by outlier", gm)
	}
	mean, _ := WeightedMean(ups)
	if mean[0] < 100 {
		t.Fatalf("sanity: mean should be dragged, got %v", mean)
	}
}

func TestGeometricMedianPermutationInvariant(t *testing.T) {
	r := rng.New(2)
	ups := make([]fl.Update, 7)
	for i := range ups {
		w := make([]float32, 5)
		r.FillNormal(w, 0, 1)
		ups[i] = fl.Update{ClientID: i, NumSamples: 1, Weights: w}
	}
	a, _ := GeometricMedian(ups)
	rev := make([]fl.Update, len(ups))
	for i := range ups {
		rev[i] = ups[len(ups)-1-i]
	}
	b, _ := GeometricMedian(rev)
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > 1e-4 {
			t.Fatal("GeoMed depends on input order")
		}
	}
}

func TestKrumSelectsClusterMember(t *testing.T) {
	// 5 benign points clustered at 0, 3 Byzantine at distance 100. With
	// f=3, Krum must select a benign point.
	var ups []fl.Update
	r := rng.New(3)
	for i := 0; i < 5; i++ {
		w := make([]float32, 10)
		r.FillNormal(w, 0, 0.01)
		ups = append(ups, fl.Update{ClientID: i, NumSamples: 1, Weights: w})
	}
	for i := 5; i < 8; i++ {
		w := make([]float32, 10)
		r.FillNormal(w, 100, 1)
		ups = append(ups, fl.Update{ClientID: i, NumSamples: 1, Weights: w})
	}
	idx, err := KrumSelect(ups, 3)
	if err != nil {
		t.Fatal(err)
	}
	if idx >= 5 {
		t.Fatalf("Krum selected Byzantine update %d", idx)
	}
	w, err := Krum(ups, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(w[0])) > 1 {
		t.Fatalf("Krum returned outlier weights %v", w[:3])
	}
}

func TestKrumSingleUpdate(t *testing.T) {
	idx, err := KrumSelect([]fl.Update{upd(0, 1, 1, 2)}, 0)
	if err != nil || idx != 0 {
		t.Fatalf("KrumSelect single = %d, %v", idx, err)
	}
}

func TestCoordinateMedianOddEven(t *testing.T) {
	odd, _ := CoordinateMedian([]fl.Update{
		upd(0, 1, 1), upd(1, 1, 100), upd(2, 1, 3),
	})
	if odd[0] != 3 {
		t.Fatalf("median of {1,100,3} = %v", odd[0])
	}
	even, _ := CoordinateMedian([]fl.Update{
		upd(0, 1, 1), upd(1, 1, 3),
	})
	if even[0] != 2 {
		t.Fatalf("median of {1,3} = %v", even[0])
	}
}

func TestTrimmedMeanDropsExtremes(t *testing.T) {
	out, err := TrimmedMean([]fl.Update{
		upd(0, 1, -1000), upd(1, 1, 1), upd(2, 1, 2), upd(3, 1, 3), upd(4, 1, 1000),
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 {
		t.Fatalf("trimmed mean = %v, want 2", out[0])
	}
	if _, err := TrimmedMean([]fl.Update{upd(0, 1, 1)}, 1); err == nil {
		t.Fatal("TrimmedMean accepted trim >= n/2")
	}
}

func TestNormClip(t *testing.T) {
	ups := []fl.Update{
		upd(0, 1, 3, 4),   // norm 5 -> clipped to 1
		upd(1, 1, 0.3, 0), // norm .3 -> untouched
	}
	out, err := NormClip(ups, 1)
	if err != nil {
		t.Fatal(err)
	}
	n0 := math.Hypot(float64(out[0].Weights[0]), float64(out[0].Weights[1]))
	if math.Abs(n0-1) > 1e-5 {
		t.Fatalf("clipped norm = %v", n0)
	}
	if out[1].Weights[0] != 0.3 {
		t.Fatal("NormClip modified an in-bound update")
	}
	if ups[0].Weights[0] != 3 {
		t.Fatal("NormClip mutated its input")
	}
}

func TestStrategiesMetadata(t *testing.T) {
	strategies := []fl.Strategy{
		NewFedAvg(), NewGeoMed(), NewKrum(), NewMedian(), NewTrimmedMean(), NewNormClip(),
	}
	names := map[string]bool{}
	for _, s := range strategies {
		if s.Name() == "" {
			t.Fatal("empty strategy name")
		}
		if names[s.Name()] {
			t.Fatalf("duplicate strategy name %q", s.Name())
		}
		names[s.Name()] = true
		if s.NeedsDecoders() {
			t.Fatalf("%s should not need decoders", s.Name())
		}
	}
}

func TestStrategiesAggregateViaContext(t *testing.T) {
	ups := []fl.Update{
		upd(0, 1, 1, 1), upd(1, 1, 2, 2), upd(2, 1, 3, 3),
	}
	for _, s := range []fl.Strategy{
		NewFedAvg(), NewGeoMed(), NewKrum(), NewMedian(),
		NewTrimmedMean(), NewNormClip(),
	} {
		ctx := &fl.RoundContext{Round: 1, Updates: ups, RNG: rng.New(1), Report: map[string]float64{}}
		out, err := s.Aggregate(ctx)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(out) != 2 {
			t.Fatalf("%s returned %d params", s.Name(), len(out))
		}
		if out[0] < 1 || out[0] > 3 {
			t.Fatalf("%s aggregated outside the convex hull: %v", s.Name(), out)
		}
	}
}

// Property: for any updates, the coordinate-wise median lies within the
// per-coordinate min/max envelope.
func TestQuickMedianInEnvelope(t *testing.T) {
	r := rng.New(4)
	f := func(nu uint8) bool {
		n := int(nu%9) + 1
		ups := make([]fl.Update, n)
		for i := range ups {
			w := make([]float32, 6)
			r.FillNormal(w, 0, 10)
			ups[i] = fl.Update{ClientID: i, NumSamples: 1, Weights: w}
		}
		med, err := CoordinateMedian(ups)
		if err != nil {
			return false
		}
		for j := 0; j < 6; j++ {
			lo, hi := float32(math.Inf(1)), float32(math.Inf(-1))
			for _, u := range ups {
				if u.Weights[j] < lo {
					lo = u.Weights[j]
				}
				if u.Weights[j] > hi {
					hi = u.Weights[j]
				}
			}
			if med[j] < lo || med[j] > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStrategyDerivedParameters pins the parameter each robust strategy
// derives from the round's m updates: Krum assumes f = (m−1)/2,
// TrimmedMean trims m/4 at each end, NormClip clips to the median norm.
// Each fixture's expectation is worked out by hand, and the Krum one
// would select another update at any other f.
func TestStrategyDerivedParameters(t *testing.T) {
	aggregate := func(s fl.Strategy, ups []fl.Update) ([]float32, *fl.RoundContext) {
		t.Helper()
		ctx := &fl.RoundContext{Round: 1, Updates: ups, RNG: rng.New(1), Report: map[string]float64{}}
		out, err := s.Aggregate(ctx)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		return out, ctx
	}

	// m = 7, so f = 3 and a score sums the k = m−f−2 = 2 nearest squared
	// distances: 0.1's is 0.02, the lowest. At f = 0 (k = 5) the spread
	// cluster's 6 would win with 74.45 against 0.1's 106.45.
	var ups []fl.Update
	for i, v := range []float32{0, 0.1, 0.2, 5, 6, 7, 8} {
		ups = append(ups, upd(i, 1, v))
	}
	if out, ctx := aggregate(NewKrum(), ups); out[0] != 0.1 || ctx.Report[fl.ReportKrumSelected] != 1 {
		t.Errorf("Krum selected client %v (%v), want client 1 (0.1)", ctx.Report[fl.ReportKrumSelected], out)
	}

	// m = 8 trims two at each end: the mean of 1, 2, 3, 4.
	ups = ups[:0]
	for i, v := range []float32{1000, -100, 1, 2, 3, 4, 50, -50} {
		ups = append(ups, upd(i, 1, v))
	}
	if out, _ := aggregate(NewTrimmedMean(), ups); out[0] != 2.5 {
		t.Errorf("TrimmedMean over 8 = %v, want 2.5", out[0])
	}
	// m = 3 trims none: the plain mean.
	if out, _ := aggregate(NewTrimmedMean(), []fl.Update{upd(0, 1, 1), upd(1, 1, 2), upd(2, 1, 30)}); out[0] != 11 {
		t.Errorf("TrimmedMean over 3 = %v, want 11", out[0])
	}

	// Norms 5, 1, 2, 10: the median (upper middle) is 5, so only (10, 0)
	// is clipped, to (5, 0), before the mean.
	ups = []fl.Update{upd(0, 1, 3, 4), upd(1, 1, 0.6, 0.8), upd(2, 1, 0, 2), upd(3, 1, 10, 0)}
	out, _ := aggregate(NewNormClip(), ups)
	if math.Abs(float64(out[0])-(3+0.6+0+5)/4) > 1e-6 || math.Abs(float64(out[1])-(4+0.8+2+0)/4) > 1e-6 {
		t.Errorf("NormClip = %v, want [2.15 1.7]", out)
	}
}

func TestKrumScoresMatchSelect(t *testing.T) {
	r := rng.New(6)
	var ups []fl.Update
	for i := 0; i < 7; i++ {
		w := make([]float32, 5)
		r.FillNormal(w, 0, 1)
		ups = append(ups, fl.Update{ClientID: i, NumSamples: 1, Weights: w})
	}
	scores, err := krumScores(ups, 2)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := KrumSelect(ups, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scores {
		if s < scores[idx] && i != idx {
			t.Fatalf("KrumSelect picked %d but %d has lower score", idx, i)
		}
	}
}
