package loss

import (
	"math"
	"testing"

	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits over 4 classes -> loss = ln 4.
	logits := tensor.New(2, 4)
	l, grad := SoftmaxCrossEntropy(logits, []int{0, 3})
	if math.Abs(l-math.Log(4)) > 1e-6 {
		t.Fatalf("loss = %v, want ln4 = %v", l, math.Log(4))
	}
	// grad = (p - onehot)/B: p = 0.25 everywhere.
	if math.Abs(float64(grad.Data[0])-(0.25-1)/2) > 1e-6 {
		t.Fatalf("grad[0][0] = %v", grad.Data[0])
	}
	if math.Abs(float64(grad.Data[1])-0.25/2) > 1e-6 {
		t.Fatalf("grad[0][1] = %v", grad.Data[1])
	}
}

func TestSoftmaxCrossEntropyGradNumeric(t *testing.T) {
	r := rng.New(1)
	logits := tensor.New(3, 5)
	r.FillNormal(logits.Data, 0, 1)
	labels := []int{1, 4, 0}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	const eps = 1e-2
	for i := 0; i < logits.Len(); i++ {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig - eps
		lm, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(grad.Data[i])) > 1e-3 {
			t.Fatalf("CE grad[%d]: analytic %v, numeric %v", i, grad.Data[i], num)
		}
	}
}

func TestSoftmaxCrossEntropyDecreasesWithCorrectLogit(t *testing.T) {
	logits := tensor.New(1, 3)
	l0, _ := SoftmaxCrossEntropy(logits, []int{2})
	logits.Data[2] = 5
	l1, _ := SoftmaxCrossEntropy(logits, []int{2})
	if l1 >= l0 {
		t.Fatalf("raising the true-class logit did not reduce loss: %v -> %v", l0, l1)
	}
}

// bce returns the BCE loss and its gradient, as the CVAE's step computes
// them.
func bce(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	grad := tensor.New(pred.Shape()...)
	BinaryCrossEntropyGrad(grad, pred, target)
	return BinaryCrossEntropyLoss(pred, target), grad
}

func TestBCEKnown(t *testing.T) {
	pred := tensor.FromSlice([]float32{0.5, 0.5}, 1, 2)
	target := tensor.FromSlice([]float32{1, 0}, 1, 2)
	l, _ := bce(pred, target)
	if math.Abs(l-2*math.Log(2)) > 1e-5 {
		t.Fatalf("BCE = %v, want 2 ln2 = %v", l, 2*math.Log(2))
	}
}

func TestBCEGradNumeric(t *testing.T) {
	r := rng.New(2)
	pred := tensor.New(2, 6)
	target := tensor.New(2, 6)
	for i := range pred.Data {
		pred.Data[i] = 0.2 + 0.6*float32(r.Float64())
		target.Data[i] = float32(r.Float64())
	}
	_, grad := bce(pred, target)
	const eps = 1e-3
	for i := 0; i < pred.Len(); i++ {
		orig := pred.Data[i]
		pred.Data[i] = orig + eps
		lp, _ := bce(pred, target)
		pred.Data[i] = orig - eps
		lm, _ := bce(pred, target)
		pred.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(grad.Data[i])) > 1e-2*(1+math.Abs(num)) {
			t.Fatalf("BCE grad[%d]: analytic %v, numeric %v", i, grad.Data[i], num)
		}
	}
}

func TestBCEClampsExtremes(t *testing.T) {
	pred := tensor.FromSlice([]float32{0, 1}, 1, 2)
	target := tensor.FromSlice([]float32{1, 0}, 1, 2)
	l, grad := bce(pred, target)
	if math.IsInf(l, 0) || math.IsNaN(l) {
		t.Fatalf("BCE at extremes = %v", l)
	}
	for _, g := range grad.Data {
		if math.IsInf(float64(g), 0) || math.IsNaN(float64(g)) {
			t.Fatalf("BCE grad at extremes = %v", grad.Data)
		}
	}
}

// TestBCEBitwise holds BinaryCrossEntropyLoss and its gradient to the bits of the formula
// that takes both logarithms for every element, on targets that are
// exactly 0 (either sign), exactly 1, and in between, and on predictions
// across and beyond the clamp: skipping the logarithm whose coefficient
// is zero must not show in the loss, and the gradient never depended on
// it.
func TestBCEBitwise(t *testing.T) {
	r := rng.New(0xbce)
	const b, w = 4, 97
	pred, target := tensor.New(b, w), tensor.New(b, w)
	targets := []float32{0, 1, 0.3, float32(math.Copysign(0, -1))}
	preds := []float32{0, 1, 1e-9, 1 - 1e-8, 0.5}
	for i := range pred.Data {
		pred.Data[i] = float32(r.Float64())
		if i%7 == 0 {
			pred.Data[i] = preds[(i/7)%len(preds)]
		}
		target.Data[i] = targets[r.Intn(len(targets))]
	}
	const eps = 1e-7
	var total float64
	want := tensor.New(b, w)
	invB := float32(1 / float64(b))
	for i, p := range pred.Data {
		tv := target.Data[i]
		pc := float64(p)
		if pc < eps {
			pc = eps
		} else if pc > 1-eps {
			pc = 1 - eps
		}
		total -= float64(tv)*math.Log(pc) + float64(1-tv)*math.Log(1-pc)
		want.Data[i] = float32((pc-float64(tv))/(pc*(1-pc))) * invB
	}
	l, grad := bce(pred, target)
	if math.Float64bits(l) != math.Float64bits(total/b) {
		t.Fatalf("BCE loss %v (%#x), want %v (%#x)", l, math.Float64bits(l), total/b, math.Float64bits(total/b))
	}
	for i := range want.Data {
		if math.Float32bits(grad.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("BCE grad[%d] = %v, want %v", i, grad.Data[i], want.Data[i])
		}
	}
}

func TestMSEKnown(t *testing.T) {
	pred := tensor.FromSlice([]float32{1, 2}, 1, 2)
	target := tensor.FromSlice([]float32{0, 0}, 1, 2)
	l, grad := MSE(pred, target)
	if math.Abs(l-5) > 1e-6 {
		t.Fatalf("MSE = %v, want 5", l)
	}
	if grad.Data[0] != 2 || grad.Data[1] != 4 {
		t.Fatalf("MSE grad = %v", grad.Data)
	}
}

func TestGaussianKLZeroAtPrior(t *testing.T) {
	mu := tensor.New(3, 4)
	logvar := tensor.New(3, 4) // logvar 0 -> var 1
	l, dMu, dLogvar := GaussianKL(mu, logvar)
	if l != 0 {
		t.Fatalf("KL(N(0,1)||N(0,1)) = %v, want 0", l)
	}
	for i := range dMu.Data {
		if dMu.Data[i] != 0 || dLogvar.Data[i] != 0 {
			t.Fatal("KL gradient at the prior must vanish")
		}
	}
}

func TestGaussianKLPositive(t *testing.T) {
	r := rng.New(3)
	mu := tensor.New(5, 8)
	logvar := tensor.New(5, 8)
	r.FillNormal(mu.Data, 0, 2)
	r.FillNormal(logvar.Data, 0, 1)
	l, _, _ := GaussianKL(mu, logvar)
	if l <= 0 {
		t.Fatalf("KL of a non-prior Gaussian = %v, want > 0", l)
	}
}

func TestGaussianKLGradNumeric(t *testing.T) {
	r := rng.New(4)
	mu := tensor.New(2, 5)
	logvar := tensor.New(2, 5)
	r.FillNormal(mu.Data, 0, 1)
	r.FillNormal(logvar.Data, 0, 0.5)
	_, dMu, dLogvar := GaussianKL(mu, logvar)
	const eps = 1e-3
	for i := 0; i < mu.Len(); i++ {
		orig := mu.Data[i]
		mu.Data[i] = orig + eps
		lp, _, _ := GaussianKL(mu, logvar)
		mu.Data[i] = orig - eps
		lm, _, _ := GaussianKL(mu, logvar)
		mu.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(dMu.Data[i])) > 1e-3*(1+math.Abs(num)) {
			t.Fatalf("KL dMu[%d]: analytic %v, numeric %v", i, dMu.Data[i], num)
		}

		orig = logvar.Data[i]
		logvar.Data[i] = orig + eps
		lp, _, _ = GaussianKL(mu, logvar)
		logvar.Data[i] = orig - eps
		lm, _, _ = GaussianKL(mu, logvar)
		logvar.Data[i] = orig
		num = (lp - lm) / (2 * eps)
		if math.Abs(num-float64(dLogvar.Data[i])) > 1e-3*(1+math.Abs(num)) {
			t.Fatalf("KL dLogvar[%d]: analytic %v, numeric %v", i, dLogvar.Data[i], num)
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		1, 2, 0,
		5, 1, 1,
		0, 0, 3,
	}, 3, 3)
	if n := CountCorrect(logits, []int{1, 0, 2}); n != 3 {
		t.Fatalf("CountCorrect = %d, want 3", n)
	}
	if n := CountCorrect(logits, []int{0, 0, 2}); n != 2 {
		t.Fatalf("CountCorrect = %d, want 2", n)
	}
}

func TestAccuracyPanicsOnLabelMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CountCorrect with wrong label count did not panic")
		}
	}()
	CountCorrect(tensor.New(2, 3), []int{0})
}
