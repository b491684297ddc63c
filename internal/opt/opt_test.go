package opt

import (
	"math"
	"testing"

	"fedguard/internal/loss"
	"fedguard/internal/nn"
	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

func TestSGDStep(t *testing.T) {
	p := nn.Param{
		Name:  "w",
		Value: tensor.FromSlice([]float32{1, 2}, 2),
		Grad:  tensor.FromSlice([]float32{0.5, -0.5}, 2),
	}
	s := NewSGD([]nn.Param{p}, 0.1, 0)
	s.Step()
	if math.Abs(float64(p.Value.Data[0])-0.95) > 1e-6 || math.Abs(float64(p.Value.Data[1])-2.05) > 1e-6 {
		t.Fatalf("SGD step gave %v", p.Value.Data)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	p := nn.Param{
		Name:  "w",
		Value: tensor.FromSlice([]float32{0}, 1),
		Grad:  tensor.FromSlice([]float32{1}, 1),
	}
	s := NewSGD([]nn.Param{p}, 1, 0.9)
	s.Step() // v=1, w=-1
	s.Step() // v=1.9, w=-2.9
	if math.Abs(float64(p.Value.Data[0])+2.9) > 1e-6 {
		t.Fatalf("momentum gave %v, want -2.9", p.Value.Data[0])
	}
}

func TestAdamFirstStepIsLR(t *testing.T) {
	// With bias correction, the first Adam step is ~lr * sign(grad).
	p := nn.Param{
		Name:  "w",
		Value: tensor.FromSlice([]float32{0}, 1),
		Grad:  tensor.FromSlice([]float32{0.3}, 1),
	}
	a := NewAdam([]nn.Param{p}, 0.01)
	a.Step()
	if math.Abs(float64(p.Value.Data[0])+0.01) > 1e-4 {
		t.Fatalf("first Adam step gave %v, want ~-0.01", p.Value.Data[0])
	}
}

// TestAdamResetEqualsNew: an Adam that has stepped, then Reset to a new
// learning rate, steps its parameters exactly as a fresh NewAdam would —
// no moment, step count or learning rate survives the reset.
func TestAdamResetEqualsNew(t *testing.T) {
	newParams := func() []nn.Param {
		r := rng.New(3)
		var ps []nn.Param
		for _, n := range []int{7, 13} { // a vector remainder in each
			p := nn.Param{Name: "w", Value: tensor.New(n), Grad: tensor.New(n)}
			r.FillNormal(p.Value.Data, 0, 1)
			ps = append(ps, p)
		}
		return ps
	}
	steps := func(a *Adam, ps []nn.Param, seed uint64) {
		r := rng.New(seed)
		for range 3 {
			for _, p := range ps {
				r.FillNormal(p.Grad.Data, 0, 0.1)
			}
			a.Step()
		}
	}

	reused, fresh := newParams(), newParams()
	a := NewAdam(reused, 0.05)
	steps(a, reused, 1)
	for i, p := range newParams() {
		copy(reused[i].Value.Data, p.Value.Data)
	}
	a.Reset(0.01)
	steps(a, reused, 2)
	steps(NewAdam(fresh, 0.01), fresh, 2)
	for i := range fresh {
		for j, want := range fresh[i].Value.Data {
			if got := reused[i].Value.Data[j]; math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("param %d [%d]: reset Adam gave %g, fresh %g", i, j, got, want)
			}
		}
	}
	if a.lr != 0.01 {
		t.Fatalf("lr after Reset(0.01) = %g", a.lr)
	}
}

// Training an XOR-ish toy problem end-to-end proves the substrate learns.
func TestTrainingConverges(t *testing.T) {
	r := rng.New(42)
	model := nn.NewSequential(
		nn.NewLinear(2, 16, r),
		nn.NewReLU(),
		nn.NewLinear(16, 2, r),
	)
	x := tensor.FromSlice([]float32{
		0, 0,
		0, 1,
		1, 0,
		1, 1,
	}, 4, 2)
	labels := []int{0, 1, 1, 0}
	optim := NewAdam(model.Params(), 0.05)
	var final float64
	for epoch := 0; epoch < 300; epoch++ {
		model.ZeroGrad()
		logits := model.Forward(x, true)
		l, grad := loss.SoftmaxCrossEntropy(logits, labels)
		model.Backward(grad)
		optim.Step()
		final = l
	}
	if final > 0.1 {
		t.Fatalf("XOR did not converge: final loss %v", final)
	}
	logits := model.Forward(x, false)
	if n := loss.CountCorrect(logits, labels); n != len(labels) {
		t.Fatalf("XOR: %d of %d correct", n, len(labels))
	}
}

func TestSGDTrainsLinearRegression(t *testing.T) {
	r := rng.New(7)
	model := nn.NewSequential(nn.NewLinear(3, 1, r))
	// Ground truth: y = 2x0 - x1 + 0.5x2 + 1.
	const n = 64
	x := tensor.New(n, 3)
	target := tensor.New(n, 1)
	r.FillNormal(x.Data, 0, 1)
	for i := 0; i < n; i++ {
		target.Data[i] = 2*x.Data[3*i] - x.Data[3*i+1] + 0.5*x.Data[3*i+2] + 1
	}
	optim := NewSGD(model.Params(), 0.1, 0.9)
	var final float64
	for epoch := 0; epoch < 200; epoch++ {
		model.ZeroGrad()
		pred := model.Forward(x, true)
		l, grad := loss.MSE(pred, target)
		model.Backward(grad)
		optim.Step()
		final = l
	}
	if final > 1e-3 {
		t.Fatalf("linear regression did not converge: final loss %v", final)
	}
}

// TestSetLR: an optimizer's rate changes only through Reset, and the
// next step moves by the new rate — SGD by lr·g, Adam's first step by
// about lr.
func TestSetLR(t *testing.T) {
	unit := func() nn.Param {
		return nn.Param{Name: "w", Value: tensor.New(1), Grad: tensor.FromSlice([]float32{1}, 1)}
	}
	p := unit()
	s := NewSGD([]nn.Param{p}, 0.1, 0)
	s.Reset(0.5, 0)
	s.Step()
	if got := p.Value.Data[0]; got != -0.5 {
		t.Fatalf("SGD reset to 0.5 stepped a unit gradient to %v", got)
	}
	p = unit()
	a := NewAdam([]nn.Param{p}, 0.1)
	a.Reset(0.5)
	a.Step()
	if got := p.Value.Data[0]; math.Abs(float64(got)+0.5) > 1e-4 {
		t.Fatalf("Adam reset to 0.5 took a first step to %v", got)
	}
}

// TestAdamStepBitwise holds adamStep — the AVX kernel plus its Go tail
// in the default build, the Go loop alone under purego — to the bits of
// the textbook per-parameter loop, over lengths on both sides of every
// group-of-four boundary and over three steps, with the entries a
// correctly rounded kernel must not treat specially: gradients that are
// exactly zero (so v stays 0 and the step is 0/(√0+eps)), denormal
// gradients (whose square underflows), and magnitudes near the float32
// range's ends.
func TestAdamStepBitwise(t *testing.T) {
	special := []float32{
		0, float32(math.Copysign(0, -1)), 1e-42, -1e-42, 1e-30, -3e-20,
		1e18, -1e18, 3e38, 1, -1, 1e-8,
	}
	const eps = 1e-8
	b1, b2 := float32(0.9), float32(0.999)
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 31, 33, 1000} {
		r := rng.New(uint64(n) + 17)
		val, g := make([]float32, n), make([]float32, n)
		m, v := make([]float32, n), make([]float32, n)
		r.FillNormal(val, 0, 1)
		wantVal := append([]float32(nil), val...)
		wantM, wantV := make([]float32, n), make([]float32, n)
		for step := 1; step <= 3; step++ {
			r.FillNormal(g, 0, 0.1)
			for j := range g {
				switch {
				case j%5 == 1: // never any gradient: m = v = 0 throughout
					g[j] = 0
				case j%3 == 0:
					g[j] = special[(j/3+step)%len(special)]
				}
			}
			lr := 1e-3 * math.Sqrt(1-math.Pow(0.999, float64(step))) / (1 - math.Pow(0.9, float64(step)))
			adamStep(val, g, m, v, b1, b2, lr, eps)
			for j, gj := range g {
				wantM[j] = b1*wantM[j] + (1-b1)*gj
				wantV[j] = b2*wantV[j] + (1-b2)*gj*gj
				wantVal[j] -= float32(lr * float64(wantM[j]) / (math.Sqrt(float64(wantV[j])) + eps))
			}
			for j := range val {
				if math.Float32bits(val[j]) != math.Float32bits(wantVal[j]) ||
					math.Float32bits(m[j]) != math.Float32bits(wantM[j]) ||
					math.Float32bits(v[j]) != math.Float32bits(wantV[j]) {
					t.Fatalf("n=%d step %d [%d] g=%g: val %g m %g v %g, want %g %g %g",
						n, step, j, g[j], val[j], m[j], v[j], wantVal[j], wantM[j], wantV[j])
				}
			}
		}
	}
}
