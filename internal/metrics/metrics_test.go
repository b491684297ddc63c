package metrics

import (
	"math"
	"slices"
	"strings"
	"testing"

	"fedguard/internal/classifier"
	"fedguard/internal/dataset"
	"fedguard/internal/rng"
)

// total returns the number of observations c holds.
func total(c *Confusion) int {
	n := 0
	for _, row := range c.Counts {
		for _, v := range row {
			n += v
		}
	}
	return n
}

func TestConfusionBasics(t *testing.T) {
	c := NewConfusion(3)
	c.Add(0, 0)
	c.Add(0, 0)
	c.Add(1, 2)
	c.Add(2, 2)
	if c.Counts[0][0] != 2 || c.Counts[1][2] != 1 || c.Counts[2][2] != 1 {
		t.Fatalf("Counts = %v", c.Counts)
	}
	recall := c.Recall()
	if recall[0] != 1 || recall[1] != 0 || recall[2] != 1 {
		t.Fatalf("Recall = %v", recall)
	}
	a, p, n := c.MostConfused()
	if a != 1 || p != 2 || n != 1 {
		t.Fatalf("MostConfused = (%d,%d,%d)", a, p, n)
	}
}

func TestConfusionEmpty(t *testing.T) {
	c := NewConfusion(2)
	r := c.Recall()
	if r[0] != 0 || r[1] != 0 {
		t.Fatal("empty recall should be 0 (not NaN)")
	}
	a, p, n := c.MostConfused()
	if a != -1 || p != -1 || n != 0 {
		t.Fatalf("MostConfused on empty = (%d,%d,%d)", a, p, n)
	}
}

func TestConfusionAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Add did not panic")
		}
	}()
	NewConfusion(2).Add(0, 5)
}

func TestConfusionString(t *testing.T) {
	c := NewConfusion(2)
	c.Add(0, 1)
	s := c.String()
	if !strings.Contains(s, "recall") || !strings.Contains(s, "0.0%") {
		t.Fatalf("String output unexpected:\n%s", s)
	}
}

func TestEvaluateMatchesAccuracy(t *testing.T) {
	r := rng.New(1)
	train := dataset.Generate(300, dataset.DefaultGenOptions(), r)
	test := dataset.Generate(150, dataset.DefaultGenOptions(), r)
	m := classifier.Tiny()(r)
	classifier.Train(m, train, dataset.Range(train.Len()),
		classifier.TrainConfig{Epochs: 5, BatchSize: 32, LR: 0.1, Momentum: 0.9}, r)

	idx := dataset.Range(test.Len())
	c := Evaluate(m, test, idx)
	if n := total(c); n != test.Len() {
		t.Fatalf("confusion total %d, want %d", n, test.Len())
	}
	correct := 0
	for i, row := range c.Counts {
		correct += row[i]
	}
	acc := float64(correct) / float64(test.Len())
	if plain := classifier.Evaluate(m, test, idx); math.Abs(acc-plain) > 1e-9 {
		t.Fatalf("confusion accuracy %v != classifier accuracy %v", acc, plain)
	}
}

func TestEvaluateWeights(t *testing.T) {
	r := rng.New(2)
	test := dataset.Generate(50, dataset.DefaultGenOptions(), r)
	m := classifier.Tiny()(r)
	w := m.FlattenParams()
	c, err := EvaluateWeights(classifier.Tiny(), w, test, dataset.Range(test.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if n := total(c); n != 50 {
		t.Fatalf("total = %d", n)
	}
	if _, err := EvaluateWeights(classifier.Tiny(), w[:10], test, dataset.Range(test.Len())); err == nil {
		t.Fatal("short weight vector accepted")
	}
}

// A model trained on label-flipped data must show its confusion
// concentrated on the flipped pairs — the targeted-attack signature.
func TestLabelFlipSignature(t *testing.T) {
	r := rng.New(3)
	train := dataset.Generate(600, dataset.DefaultGenOptions(), r)
	test := dataset.Generate(400, dataset.DefaultGenOptions(), r)

	// Flip 5<->7 in the training labels.
	flipped := &dataset.Dataset{X: train.X, Labels: slices.Clone(train.Labels), H: train.H, W: train.W}
	for i, l := range flipped.Labels {
		switch l {
		case 5:
			flipped.Labels[i] = 7
		case 7:
			flipped.Labels[i] = 5
		}
	}
	m := classifier.Tiny()(r)
	classifier.Train(m, flipped, dataset.Range(flipped.Len()),
		classifier.TrainConfig{Epochs: 8, BatchSize: 32, LR: 0.1, Momentum: 0.9}, r)

	c := Evaluate(m, test, dataset.Range(test.Len()))
	recall := c.Recall()
	// Non-flipped classes learn normally; flipped classes collapse.
	var cleanAvg float64
	for _, cls := range []int{0, 1, 3, 6, 8, 9} {
		cleanAvg += recall[cls]
	}
	cleanAvg /= 6
	if cleanAvg < 0.6 {
		t.Fatalf("clean classes recall %v too low for the test to be meaningful", cleanAvg)
	}
	if recall[5] > 0.3 || recall[7] > 0.3 {
		t.Fatalf("flipped classes should collapse: recall[5]=%v recall[7]=%v", recall[5], recall[7])
	}
	a, p, _ := c.MostConfused()
	pair := map[[2]int]bool{{5, 7}: true, {7, 5}: true}
	if !pair[[2]int{a, p}] {
		t.Fatalf("dominant confusion (%d->%d), want within the flipped pair", a, p)
	}
}

// MostConfused with no off-diagonal mass must report the sentinel
// (-1, -1, 0), not a phantom cell — callers render it as "no dominant
// confusion".
func TestMostConfusedDegenerate(t *testing.T) {
	empty := NewConfusion(4)
	if a, p, n := empty.MostConfused(); a != -1 || p != -1 || n != 0 {
		t.Fatalf("empty matrix: MostConfused = (%d, %d, %d), want (-1, -1, 0)", a, p, n)
	}

	diagonal := NewConfusion(4)
	for i := 0; i < 4; i++ {
		for k := 0; k <= i; k++ {
			diagonal.Add(i, i)
		}
	}
	if a, p, n := diagonal.MostConfused(); a != -1 || p != -1 || n != 0 {
		t.Fatalf("all-diagonal matrix: MostConfused = (%d, %d, %d), want (-1, -1, 0)", a, p, n)
	}
}

func TestEvaluateWeightsLengthMismatch(t *testing.T) {
	arch := classifier.Tiny()
	ds := dataset.Generate(8, dataset.DefaultGenOptions(), rng.New(3))
	idx := dataset.Range(ds.Len())

	want := len(arch(rng.New(1)).FlattenParams())
	for _, n := range []int{0, 1, want - 1, want + 1} {
		if _, err := EvaluateWeights(arch, make([]float32, n), ds, idx); err == nil {
			t.Fatalf("EvaluateWeights accepted a %d-element vector (model has %d)", n, want)
		}
	}
	// The correct length still round-trips.
	if _, err := EvaluateWeights(arch, make([]float32, want), ds, idx); err != nil {
		t.Fatalf("EvaluateWeights rejected a correctly sized vector: %v", err)
	}
}
