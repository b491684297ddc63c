package classifier

import (
	"testing"

	"fedguard/internal/dataset"
	"fedguard/internal/rng"
)

func TestPaperArchParameterCount(t *testing.T) {
	r := rng.New(1)
	m := Paper()(r)
	// Table II reports 1,662,752 total parameters. Our conv layers use
	// identical shapes: 32*1*25+32 + 64*32*25+64 + 512*1024+512 + 10*512+10.
	want := 32*25 + 32 + 64*32*25 + 64 + 512*64*4*4 + 512 + 10*512 + 10
	if got := m.NumParams(); got != want {
		t.Fatalf("Paper() has %d params, want %d", got, want)
	}
}

func TestPaperArchOutputShape(t *testing.T) {
	r := rng.New(2)
	m := Paper()(r)
	d := dataset.Generate(2, dataset.DefaultGenOptions(), rng.New(3))
	x, _ := d.Batch([]int{0, 1})
	y := m.Forward(x, false)
	if y.Dim(0) != 2 || y.Dim(1) != 10 {
		t.Fatalf("Paper() output shape %v", y.Shape())
	}
}

func TestArchesShareLayout(t *testing.T) {
	// Two instances of the same Arch must have interchangeable flat
	// parameter vectors.
	r := rng.New(4)
	a := Small()(r)
	b := Small()(r)
	if a.NumParams() != b.NumParams() {
		t.Fatal("two Small() instances disagree on parameter count")
	}
	if err := b.LoadParams(a.FlattenParams()); err != nil {
		t.Fatal(err)
	}
}

func TestTrainImprovesAccuracy(t *testing.T) {
	r := rng.New(5)
	train := dataset.Generate(400, dataset.DefaultGenOptions(), r)
	test := dataset.Generate(200, dataset.DefaultGenOptions(), r)
	m := Tiny()(r)
	before := Evaluate(m, test, dataset.Range(test.Len()))
	cfg := TrainConfig{Epochs: 8, BatchSize: 32, LR: 0.1, Momentum: 0.9}
	Train(m, train, dataset.Range(train.Len()), cfg, r)
	after := Evaluate(m, test, dataset.Range(test.Len()))
	if after < before+0.3 {
		t.Fatalf("training barely helped: %v -> %v", before, after)
	}
	if after < 0.8 {
		t.Fatalf("Tiny classifier reached only %v accuracy on SynthDigits", after)
	}
}

func TestSmallClassifierLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("conv training is slow in -short mode")
	}
	r := rng.New(6)
	train := dataset.Generate(600, dataset.DefaultGenOptions(), r)
	test := dataset.Generate(300, dataset.DefaultGenOptions(), r)
	m := Small()(r)
	cfg := TrainConfig{Epochs: 6, BatchSize: 32, LR: 0.05, Momentum: 0.9}
	Train(m, train, dataset.Range(train.Len()), cfg, r)
	acc := Evaluate(m, test, dataset.Range(test.Len()))
	if acc < 0.85 {
		t.Fatalf("Small classifier reached only %v accuracy", acc)
	}
}

func TestEvaluateEmptyIndices(t *testing.T) {
	r := rng.New(7)
	m := Tiny()(r)
	d := dataset.Generate(10, dataset.DefaultGenOptions(), r)
	if acc := Evaluate(m, d, nil); acc != 0 {
		t.Fatalf("Evaluate on empty index list = %v", acc)
	}
}

func TestEvaluateTensorMatchesEvaluate(t *testing.T) {
	r := rng.New(8)
	m := Tiny()(r)
	d := dataset.Generate(50, dataset.DefaultGenOptions(), r)
	idx := dataset.Range(d.Len())
	x, labels := d.Batch(idx)
	a := Evaluate(m, d, idx)
	b := float64(CountCorrectTensor(m, x, labels)) / float64(len(idx))
	if a != b {
		t.Fatalf("Evaluate %v != CountCorrectTensor on the whole set %v", a, b)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"paper", "small", "tiny"} {
		arch, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if arch == nil {
			t.Fatalf("%s returned nil arch", name)
		}
	}
	if _, err := ByName("alexnet"); err == nil {
		t.Fatal("unknown arch accepted")
	}
}
