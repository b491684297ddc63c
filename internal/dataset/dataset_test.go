package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"fedguard/internal/rng"
)

func TestGenerateShapeAndRange(t *testing.T) {
	r := rng.New(1)
	d := Generate(100, DefaultGenOptions(), r)
	if d.Len() != 100 {
		t.Fatalf("Len = %d", d.Len())
	}
	if len(d.X) != 100*28*28 {
		t.Fatalf("X length = %d", len(d.X))
	}
	for _, v := range d.X {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %v outside [0,1]", v)
		}
	}
	for _, l := range d.Labels {
		if l < 0 || l >= NumClasses {
			t.Fatalf("label %d out of range", l)
		}
	}
}

func TestGenerateClassBalance(t *testing.T) {
	r := rng.New(2)
	d := Generate(1000, DefaultGenOptions(), r)
	counts := make([]int, NumClasses)
	for _, l := range d.Labels {
		counts[l]++
	}
	for c, n := range counts {
		if n != 100 {
			t.Fatalf("class %d has %d samples, want 100", c, n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(50, DefaultGenOptions(), rng.New(3))
	b := Generate(50, DefaultGenOptions(), rng.New(3))
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatal("same seed produced different datasets")
		}
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different labels")
		}
	}
}

func TestRenderDigitHasInk(t *testing.T) {
	r := rng.New(4)
	img := make([]float32, ImageH*ImageW)
	for class := 0; class < NumClasses; class++ {
		RenderDigit(img, class, DefaultGenOptions(), r)
		var sum float32
		for _, v := range img {
			sum += v
		}
		// A digit stroke should cover a meaningful fraction of the canvas.
		if sum < 10 {
			t.Fatalf("class %d rendered nearly blank (ink %v)", class, sum)
		}
		if sum > float32(ImageH*ImageW)*0.8 {
			t.Fatalf("class %d rendered nearly solid (ink %v)", class, sum)
		}
	}
}

func TestClassesAreDistinguishable(t *testing.T) {
	// Mean images of different classes should differ far more than mean
	// images of the same class rendered twice — the signal a classifier
	// learns from.
	r := rng.New(5)
	mean := func(class int) []float64 {
		acc := make([]float64, ImageH*ImageW)
		img := make([]float32, ImageH*ImageW)
		const n = 50
		for i := 0; i < n; i++ {
			RenderDigit(img, class, DefaultGenOptions(), r)
			for j, v := range img {
				acc[j] += float64(v) / n
			}
		}
		return acc
	}
	dist := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return math.Sqrt(s)
	}
	m0a := mean(0)
	m0b := mean(0)
	m1 := mean(1)
	same := dist(m0a, m0b)
	diff := dist(m0a, m1)
	if diff < 3*same {
		t.Fatalf("class separation too weak: intra %v vs inter %v", same, diff)
	}
}

func TestBatchGather(t *testing.T) {
	r := rng.New(6)
	d := Generate(20, DefaultGenOptions(), r)
	x, labels := d.Batch([]int{3, 7})
	if x.Dim(0) != 2 || x.Dim(1) != 1 || x.Dim(2) != 28 || x.Dim(3) != 28 {
		t.Fatalf("batch shape %v", x.Shape())
	}
	if labels[0] != d.Labels[3] || labels[1] != d.Labels[7] {
		t.Fatal("batch labels wrong")
	}
	sz := d.ImageSize()
	for i := 0; i < sz; i++ {
		if x.Data[i] != d.X[3*sz+i] {
			t.Fatal("batch pixels wrong")
		}
	}
}

func TestFlatBatch(t *testing.T) {
	r := rng.New(7)
	d := Generate(10, DefaultGenOptions(), r)
	x, _ := d.FlatBatchInto(nil, nil, []int{0, 1, 2})
	if x.Dim(0) != 3 || x.Dim(1) != 784 {
		t.Fatalf("flat batch shape %v", x.Shape())
	}
}

// TestSubsetAndClone: subset picks the indexed examples, and what
// Batch gathers is a copy — writing it leaves the dataset alone.
func TestSubsetAndClone(t *testing.T) {
	r := rng.New(8)
	d := Generate(10, DefaultGenOptions(), r)
	s := subset(d, []int{1, 3})
	if s.Len() != 2 || s.Labels[0] != d.Labels[1] {
		t.Fatal("Subset wrong")
	}
	x, labels := d.Batch([]int{0})
	x.Data[0], labels[0] = 99, d.Labels[0]+1
	if d.X[0] == 99 || d.Labels[0] == labels[0] {
		t.Fatal("Batch aliases the dataset")
	}
}

func TestPartitionDirichletCoversAllOnce(t *testing.T) {
	r := rng.New(9)
	d := Generate(500, DefaultGenOptions(), r)
	parts := PartitionDirichlet(d, 13, 10, r)
	if len(parts) != 13 {
		t.Fatalf("%d partitions", len(parts))
	}
	seen := make([]int, d.Len())
	total := 0
	for _, p := range parts {
		for _, i := range p {
			seen[i]++
			total++
		}
	}
	if total != d.Len() {
		t.Fatalf("partitions hold %d indices, want %d", total, d.Len())
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("index %d appears %d times", i, n)
		}
	}
}

func TestPartitionDirichletSkew(t *testing.T) {
	// Small alpha must be more skewed than large alpha, measured by the
	// stddev of partition sizes.
	r := rng.New(10)
	d := Generate(2000, DefaultGenOptions(), r)
	sizeStd := func(alpha float64) float64 {
		parts := PartitionDirichlet(d, 20, alpha, r)
		mean := float64(d.Len()) / 20
		var ss float64
		for _, p := range parts {
			dd := float64(len(p)) - mean
			ss += dd * dd
		}
		return math.Sqrt(ss / 20)
	}
	low := sizeStd(0.1)
	high := sizeStd(100)
	if low <= high {
		t.Fatalf("Dirichlet skew inverted: std(0.1)=%v <= std(100)=%v", low, high)
	}
}

func TestQuickPartitionIsExactCover(t *testing.T) {
	r := rng.New(11)
	d := Generate(200, DefaultGenOptions(), r)
	f := func(nc uint8, a uint8) bool {
		clients := int(nc%20) + 1
		alpha := float64(a%50)/10 + 0.1
		parts := PartitionDirichlet(d, clients, alpha, r)
		seen := make([]bool, d.Len())
		count := 0
		for _, p := range parts {
			for _, i := range p {
				if i < 0 || i >= d.Len() || seen[i] {
					return false
				}
				seen[i] = true
				count++
			}
		}
		return count == d.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchesCoverAll(t *testing.T) {
	r := rng.New(12)
	idx := Range(23)
	batches := Batches(idx, 5, r)
	if len(batches) != 5 {
		t.Fatalf("%d batches, want 5", len(batches))
	}
	if len(batches[4]) != 3 {
		t.Fatalf("last batch has %d, want 3", len(batches[4]))
	}
	seen := map[int]bool{}
	for _, b := range batches {
		for _, i := range b {
			if seen[i] {
				t.Fatalf("index %d duplicated across batches", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != 23 {
		t.Fatalf("batches cover %d indices, want 23", len(seen))
	}
}

func TestApportionSumsExactly(t *testing.T) {
	f := func(seeds []uint8, totalU uint16) bool {
		if len(seeds) == 0 {
			return true
		}
		total := int(totalU % 5000)
		shares := make([]float64, len(seeds))
		var sum float64
		for i, s := range seeds {
			shares[i] = float64(s) + 0.01
			sum += shares[i]
		}
		for i := range shares {
			shares[i] /= sum
		}
		counts := apportion(shares, total)
		got := 0
		for _, c := range counts {
			if c < 0 {
				return false
			}
			got += c
		}
		return got == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
