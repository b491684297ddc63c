package attack

import (
	"sync"
	"testing"
	"testing/quick"

	"fedguard/internal/dataset"
	"fedguard/internal/rng"
)

func TestNoneIsIdentity(t *testing.T) {
	r := rng.New(1)
	d := dataset.Generate(10, dataset.DefaultGenOptions(), r)
	a := None{}
	ds, idx := a.PoisonData(d, dataset.Range(10))
	if ds != d {
		t.Fatal("None.PoisonData copied the dataset")
	}
	if len(idx) != 10 {
		t.Fatal("None.PoisonData changed indices")
	}
	w := []float32{1, -2, 3}
	a.PoisonModel(w, r)
	if w[0] != 1 || w[1] != -2 || w[2] != 3 {
		t.Fatal("None.PoisonModel modified weights")
	}
}

func TestSameValue(t *testing.T) {
	r := rng.New(2)
	a := NewSameValue()
	w := []float32{0.5, -3, 7}
	a.PoisonModel(w, r)
	for _, v := range w {
		if v != 1 {
			t.Fatalf("SameValue left %v", w)
		}
	}
}

func TestSignFlipIsInvolution(t *testing.T) {
	r := rng.New(3)
	a := NewSignFlip()
	f := func(vals []float32) bool {
		w := append([]float32(nil), vals...)
		a.PoisonModel(w, r)
		a.PoisonModel(w, r)
		for i := range w {
			if w[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignFlipPreservesMagnitude(t *testing.T) {
	r := rng.New(4)
	a := NewSignFlip()
	w := []float32{3, -4}
	a.PoisonModel(w, r)
	if w[0] != -3 || w[1] != 4 {
		t.Fatalf("SignFlip gave %v", w)
	}
}

func TestAdditiveNoiseCollusion(t *testing.T) {
	// Two malicious clients sharing the instance must add identical noise.
	a := NewAdditiveNoise(1.0, 99)
	w1 := make([]float32, 100)
	w2 := make([]float32, 100)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a.PoisonModel(w1, rng.New(1)) }()
	go func() { defer wg.Done(); a.PoisonModel(w2, rng.New(2)) }()
	wg.Wait()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatal("colluding attackers added different noise")
		}
	}
	// The noise must be non-trivial.
	var nonzero int
	for _, v := range w1 {
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 90 {
		t.Fatalf("noise looks degenerate: %d nonzero of 100", nonzero)
	}
	// The vector is latched at the first model's dimension: an instance
	// reused for a model of another size panics instead of replaying it.
	defer func() {
		if recover() == nil {
			t.Fatal("dimension change did not panic")
		}
	}()
	a.PoisonModel(make([]float32, 20), rng.New(3))
}

func TestAdditiveNoiseDeterministicInSeed(t *testing.T) {
	w1 := make([]float32, 50)
	w2 := make([]float32, 50)
	NewAdditiveNoise(0.5, 7).PoisonModel(w1, rng.New(1))
	NewAdditiveNoise(0.5, 7).PoisonModel(w2, rng.New(9))
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatal("same seed produced different noise")
		}
	}
}

func TestLabelFlipPairs(t *testing.T) {
	r := rng.New(5)
	d := dataset.Generate(200, dataset.DefaultGenOptions(), r)
	a := NewLabelFlip()
	flipped, idx := a.PoisonData(d, dataset.Range(d.Len()))
	if len(idx) != d.Len() {
		t.Fatal("LabelFlip changed index list")
	}
	for i := range d.Labels {
		orig := d.Labels[i]
		got := flipped.Labels[i]
		switch orig {
		case 5:
			if got != 7 {
				t.Fatalf("label 5 -> %d", got)
			}
		case 7:
			if got != 5 {
				t.Fatalf("label 7 -> %d", got)
			}
		case 4:
			if got != 2 {
				t.Fatalf("label 4 -> %d", got)
			}
		case 2:
			if got != 4 {
				t.Fatalf("label 2 -> %d", got)
			}
		default:
			if got != orig {
				t.Fatalf("label %d -> %d, want unchanged", orig, got)
			}
		}
	}
	// Original dataset untouched.
	r2 := rng.New(5)
	ref := dataset.Generate(200, dataset.DefaultGenOptions(), r2)
	for i := range ref.Labels {
		if d.Labels[i] != ref.Labels[i] {
			t.Fatal("LabelFlip mutated the source dataset")
		}
	}
}

func TestLabelFlipOnlyTouchesGivenIndices(t *testing.T) {
	r := rng.New(6)
	d := dataset.Generate(100, dataset.DefaultGenOptions(), r)
	a := NewLabelFlip()
	// Poison only the first half.
	half := dataset.Range(50)
	flipped, _ := a.PoisonData(d, half)
	for i := 50; i < 100; i++ {
		if flipped.Labels[i] != d.Labels[i] {
			t.Fatalf("index %d outside the partition was flipped", i)
		}
	}
}

func TestLabelFlipSharesPixels(t *testing.T) {
	r := rng.New(7)
	d := dataset.Generate(10, dataset.DefaultGenOptions(), r)
	flipped, _ := NewLabelFlip().PoisonData(d, dataset.Range(10))
	if &flipped.X[0] != &d.X[0] {
		t.Fatal("LabelFlip copied pixel data unnecessarily")
	}
}

func TestAttackNames(t *testing.T) {
	cases := map[string]Attack{
		"none":           None{},
		"same-value":     NewSameValue(),
		"sign-flip":      NewSignFlip(),
		"additive-noise": NewAdditiveNoise(1, 1),
		"label-flip":     NewLabelFlip(),
		"scaled-boost":   NewScaledBoost(10),
		"alie":           NewALIE(),
		"ipm":            NewIPM(),
		"min-max":        NewMinMax(""),
		"decoder-forge":  NewDecoderForge(),
	}
	for want, a := range cases {
		if a.Name() != want {
			t.Fatalf("Name() = %q, want %q", a.Name(), want)
		}
	}
	// ByName builds every one of them under its name, and the registry
	// lists no other.
	for _, e := range registry {
		if _, ok := cases[e.name]; !ok {
			t.Errorf("the registry lists %q, which this table does not", e.name)
		}
		if a, err := ByName(e.name, 1); err != nil || a.Name() != e.name {
			t.Errorf("ByName(%q) = %v, %v", e.name, a, err)
		}
	}
	if len(registry) != len(cases) {
		t.Errorf("the registry lists %d attacks, this table %d", len(registry), len(cases))
	}
}

func TestScaledBoostWithGlobal(t *testing.T) {
	r := rng.New(8)
	a := NewScaledBoost(10)
	global := []float32{1, 1}
	w := []float32{1.1, 0.9} // deltas +0.1, -0.1
	a.PoisonModelWithGlobal(w, global, r)
	if d := w[0] - 2; d > 1e-5 || d < -1e-5 {
		t.Fatalf("scaled boost gave %v, want ~[2 0]", w)
	}
	if d := w[1]; d > 1e-5 || d < -1e-5 {
		t.Fatalf("scaled boost gave %v, want ~[2 0]", w)
	}
}

func TestScaledBoostPlainFallback(t *testing.T) {
	r := rng.New(9)
	a := NewScaledBoost(3)
	w := []float32{2, -1}
	a.PoisonModel(w, r)
	if w[0] != 6 || w[1] != -3 {
		t.Fatalf("plain scaling gave %v", w)
	}
}

func TestScaledBoostDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	NewScaledBoost(2).PoisonModelWithGlobal([]float32{1}, []float32{1, 2}, rng.New(1))
}
