package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators with same seed diverged at step %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Split()
	c2 := root.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first output")
	}
	// Split must be deterministic given the parent state.
	rootB := New(7)
	d1 := rootB.Split()
	d2 := rootB.Split()
	c1b, c2b := New(7), New(7) // placeholders; re-derive streams
	_ = c1b
	_ = c2b
	e1 := d1.Uint64()
	e2 := d2.Uint64()
	f1 := New(7).Split().Uint64()
	if e1 != f1 {
		t.Fatal("Split is not deterministic")
	}
	_ = e2
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(19)
	s := r.Sample(50, 25)
	if len(s) != 25 {
		t.Fatalf("Sample returned %d elements, want 25", len(s))
	}
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Sample produced duplicate or out-of-range value %d", v)
		}
		seen[v] = true
	}
}

func TestSampleUniformCoverage(t *testing.T) {
	r := New(23)
	counts := make([]int, 10)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, v := range r.Sample(10, 5) {
			counts[v]++
		}
	}
	// Each index should appear in ~half the samples.
	want := float64(trials) * 0.5
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.05 {
			t.Fatalf("index %d sampled %d times, want ~%v", i, c, want)
		}
	}
}

func TestDirichletSimplex(t *testing.T) {
	r := New(31)
	for _, alpha := range []float64{0.1, 1, 10, 100} {
		d := r.Dirichlet(alpha, 10)
		var sum float64
		for _, v := range d {
			if v < 0 {
				t.Fatalf("Dirichlet(%v) produced negative weight %v", alpha, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("Dirichlet(%v) sums to %v, want 1", alpha, sum)
		}
	}
}

func TestDirichletConcentration(t *testing.T) {
	r := New(37)
	// Large alpha -> near-uniform; small alpha -> spiky.
	const k = 10
	maxAt := func(alpha float64) float64 {
		var maxAvg float64
		const reps = 200
		for i := 0; i < reps; i++ {
			d := r.Dirichlet(alpha, k)
			m := 0.0
			for _, v := range d {
				if v > m {
					m = v
				}
			}
			maxAvg += m
		}
		return maxAvg / reps
	}
	spiky := maxAt(0.1)
	flat := maxAt(100)
	if spiky < flat {
		t.Fatalf("Dirichlet concentration inverted: max(alpha=0.1)=%v < max(alpha=100)=%v", spiky, flat)
	}
	if flat > 0.2 {
		t.Fatalf("Dirichlet(100) should be near uniform, avg max=%v", flat)
	}
}

func TestGammaMean(t *testing.T) {
	r := New(41)
	for _, shape := range []float64{0.5, 1, 2, 5} {
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += r.Gamma(shape)
		}
		mean := sum / n
		if math.Abs(mean-shape) > shape*0.05 {
			t.Fatalf("Gamma(%v) mean = %v, want ~%v", shape, mean, shape)
		}
	}
}

func TestFillNormalStats(t *testing.T) {
	r := New(43)
	buf := make([]float32, 100000)
	r.FillNormal(buf, 2, 3)
	var sum float64
	for _, v := range buf {
		sum += float64(v)
	}
	mean := sum / float64(len(buf))
	if math.Abs(mean-2) > 0.05 {
		t.Fatalf("FillNormal mean = %v, want ~2", mean)
	}
}

func TestQuickIntnBounds(t *testing.T) {
	r := New(47)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDirichletSimplex(t *testing.T) {
	r := New(53)
	f := func(a uint8, k uint8) bool {
		alpha := float64(a%50)/10 + 0.1
		kk := int(k%20) + 1
		d := r.Dirichlet(alpha, kk)
		var sum float64
		for _, v := range d {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveSeed(t *testing.T) {
	a := DeriveSeed(7, "client", 0)
	b := DeriveSeed(7, "client", 1)
	c := DeriveSeed(7, "server", 0)
	d := DeriveSeed(8, "client", 0)
	if a == b || a == c || a == d || b == c {
		t.Fatalf("derived seeds collide: %v %v %v %v", a, b, c, d)
	}
	if a != DeriveSeed(7, "client", 0) {
		t.Fatal("DeriveSeed not deterministic")
	}
}
