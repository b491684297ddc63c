package nn

import (
	"math"
	"testing"

	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// scalarLoss is a deterministic scalar function of the layer output used
// by the finite-difference gradient checks: L = <coef, y>.
func scalarLoss(y, coef *tensor.Tensor) float64 {
	var s float64
	for i := range y.Data {
		s += float64(y.Data[i]) * float64(coef.Data[i])
	}
	return s
}

// fdEps is the finite-difference step of the gradient checks.
const fdEps = 1e-2

// checkInputGrad verifies Backward's input gradient for a layer against
// central finite differences of step eps.
func checkInputGrad(t *testing.T, layer Layer, x *tensor.Tensor, r *rng.RNG, eps float64) {
	t.Helper()
	y := layer.Forward(x, true)
	coef := tensor.New(y.Shape()...)
	r.FillNormal(coef.Data, 0, 1)
	dx := layer.Backward(coef)

	for _, i := range r.Sample(x.Len(), minInt(x.Len(), 12)) {
		orig := x.Data[i]
		x.Data[i] = orig + float32(eps)
		lp := scalarLoss(layer.Forward(x, true), coef)
		x.Data[i] = orig - float32(eps)
		lm := scalarLoss(layer.Forward(x, true), coef)
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		got := float64(dx.Data[i])
		if math.Abs(num-got) > 1e-2*(1+math.Abs(num)) {
			t.Fatalf("%s input grad[%d]: analytic %v, numeric %v", layer.Name(), i, got, num)
		}
	}
}

// checkParamGrad verifies Backward's parameter gradients against central
// finite differences of step eps.
func checkParamGrad(t *testing.T, layer Layer, x *tensor.Tensor, r *rng.RNG, eps float64) {
	t.Helper()
	for _, p := range layer.Params() {
		p.Grad.Zero()
	}
	y := layer.Forward(x, true)
	coef := tensor.New(y.Shape()...)
	r.FillNormal(coef.Data, 0, 1)
	layer.Backward(coef)

	for pi, p := range layer.Params() {
		for _, i := range r.Sample(p.Value.Len(), minInt(p.Value.Len(), 10)) {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + float32(eps)
			lp := scalarLoss(layer.Forward(x, true), coef)
			p.Value.Data[i] = orig - float32(eps)
			lm := scalarLoss(layer.Forward(x, true), coef)
			p.Value.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			got := float64(p.Grad.Data[i])
			if math.Abs(num-got) > 2e-2*(1+math.Abs(num)) {
				t.Fatalf("%s param %d (%s) grad[%d]: analytic %v, numeric %v",
					layer.Name(), pi, p.Name, i, got, num)
			}
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestLinearForwardKnown(t *testing.T) {
	r := rng.New(1)
	l := NewLinear(2, 3, r)
	copy(l.W.Data, []float32{1, 2, 3, 4, 5, 6}) // W is (3,2)
	copy(l.B.Data, []float32{0.5, -0.5, 0})
	x := tensor.FromSlice([]float32{1, 1, 2, 0}, 2, 2)
	y := l.Forward(x, false)
	want := []float32{3.5, 6.5, 11, 2.5, 5.5, 10}
	for i, w := range want {
		if math.Abs(float64(y.Data[i]-w)) > 1e-6 {
			t.Fatalf("Linear forward = %v, want %v", y.Data, want)
		}
	}
}

func TestLinearGradients(t *testing.T) {
	r := rng.New(2)
	l := NewLinear(5, 4, r)
	x := tensor.New(3, 5)
	r.FillNormal(x.Data, 0, 1)
	checkInputGrad(t, l, x, r, fdEps)
	checkParamGrad(t, l, x, r, fdEps)
}

func TestConvForwardShape(t *testing.T) {
	r := rng.New(3)
	c := NewConvBlock(1, 4, 5, r)
	x := tensor.New(2, 1, 28, 28)
	y := c.Forward(x, false)
	want := []int{2, 4, 12, 12}
	for i, d := range want {
		if y.Dim(i) != d {
			t.Fatalf("ConvBlock output shape %v, want %v", y.Shape(), want)
		}
	}
}

func TestConvForwardKnown(t *testing.T) {
	r := rng.New(4)
	c := NewConvBlock(1, 2, 2, r)
	copy(c.W.Data, []float32{1, 0, 0, 1, -1, 0, 0, -1}) // main-diagonal sum, and its negation
	c.B.Data[0], c.B.Data[1] = 1, 1
	x := tensor.FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	y := c.Forward(x, false)
	// windows: [1,2;4,5]->1+5+1=7, [2,3;5,6]->2+6+1=9, [4,5;7,8]->4+8+1=13, [5,6;8,9]->5+9+1=15;
	// pooled: 15. The negated channel is negative everywhere: ReLU'd and pooled, +0.
	want := []float32{15, 0}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("ConvBlock forward = %v, want %v", y.Data, want)
		}
	}
}

func TestConvGradients(t *testing.T) {
	r := rng.New(5)
	c := NewConvBlock(2, 3, 3, r)
	x := tensor.New(2, 2, 7, 7)
	r.FillNormal(x.Data, 0, 1)
	// A step that moves a window's runner-up past its winner measures a
	// kink, not the gradient: the smaller step makes that ten times rarer.
	checkInputGrad(t, c, x, r, fdEps/10)
	checkParamGrad(t, c, x, r, fdEps/10)
}

func TestMaxPoolForwardKnown(t *testing.T) {
	p := identityBlock()
	x := tensor.FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		-1, -2, 0, 0,
		-3, -4, 9, 1,
	}, 1, 1, 4, 4)
	y := p.Forward(x, false)
	want := []float32{4, 8, 0, 9}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("pooled ReLU = %v, want %v", y.Data, want)
		}
	}
}

func TestMaxPoolBackwardRouting(t *testing.T) {
	p := identityBlock()
	x := tensor.FromSlice([]float32{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	p.Forward(x, true)
	g := tensor.FromSlice([]float32{10}, 1, 1, 1, 1)
	dx := p.Backward(g)
	want := []float32{0, 0, 0, 10}
	for i, w := range want {
		if dx.Data[i] != w {
			t.Fatalf("pool backward = %v, want %v", dx.Data, want)
		}
	}
}

func TestMaxPoolDropsOddEdges(t *testing.T) {
	p := identityBlock()
	x := tensor.New(1, 1, 5, 5)
	y := p.Forward(x, false)
	if y.Dim(2) != 2 || y.Dim(3) != 2 {
		t.Fatalf("pool on 5x5 gave %v, want 2x2 spatial", y.Shape())
	}
}

func TestReLUGradient(t *testing.T) {
	r := rng.New(6)
	x := tensor.New(4, 7)
	r.FillNormal(x.Data, 0, 1)
	checkInputGrad(t, NewReLU(), x, r, fdEps)
}

func TestSigmoidGradient(t *testing.T) {
	r := rng.New(7)
	x := tensor.New(4, 7)
	r.FillNormal(x.Data, 0, 1)
	checkInputGrad(t, NewSigmoid(), x, r, fdEps)
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := rng.New(9)
	x := tensor.New(8, 10)
	r.FillNormal(x.Data, 0, 5)
	y := tensor.New(8, 10)
	for i := 0; i < 8; i++ {
		SoftmaxRow(y.Data[i*10:(i+1)*10], x.Data[i*10:(i+1)*10])
	}
	for i := 0; i < 8; i++ {
		var sum float64
		for j := 0; j < 10; j++ {
			v := y.Data[i*10+j]
			if v < 0 || v > 1 {
				t.Fatalf("softmax output %v outside [0,1]", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("softmax row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	y := make([]float32, 3)
	SoftmaxRow(y, []float32{1000, 1000, 1000})
	for _, v := range y {
		if math.IsNaN(float64(v)) || math.Abs(float64(v)-1.0/3) > 1e-5 {
			t.Fatalf("softmax of large equal logits = %v", y)
		}
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten()
	x := tensor.New(2, 3, 4, 5)
	y := f.Forward(x, false)
	if y.Dim(0) != 2 || y.Dim(1) != 60 {
		t.Fatalf("Flatten shape = %v", y.Shape())
	}
	g := tensor.New(2, 60)
	dx := f.Backward(g)
	if dx.Rank() != 4 || dx.Dim(3) != 5 {
		t.Fatalf("Flatten backward shape = %v", dx.Shape())
	}
}

func TestSequentialComposition(t *testing.T) {
	r := rng.New(12)
	model := NewSequential(
		NewLinear(4, 8, r),
		NewReLU(),
		NewLinear(8, 3, r),
	)
	x := tensor.New(5, 4)
	r.FillNormal(x.Data, 0, 1)
	y := model.Forward(x, true)
	if y.Dim(0) != 5 || y.Dim(1) != 3 {
		t.Fatalf("Sequential output shape %v", y.Shape())
	}
	if got := len(model.Params()); got != 4 {
		t.Fatalf("Sequential has %d params, want 4", got)
	}
	if model.NumParams() != 4*8+8+8*3+3 {
		t.Fatalf("NumParams = %d", model.NumParams())
	}
}

func TestFlattenLoadRoundTrip(t *testing.T) {
	r := rng.New(13)
	a := NewSequential(NewLinear(6, 4, r), NewReLU(), NewLinear(4, 2, r))
	b := NewSequential(NewLinear(6, 4, r), NewReLU(), NewLinear(4, 2, r))
	flat := a.FlattenParams()
	if len(flat) != a.NumParams() {
		t.Fatalf("FlattenParams length %d, want %d", len(flat), a.NumParams())
	}
	if err := b.LoadParams(flat); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(3, 6)
	r.FillNormal(x.Data, 0, 1)
	ya := a.Forward(x, false)
	yb := b.Forward(x, false)
	for i := range ya.Data {
		if ya.Data[i] != yb.Data[i] {
			t.Fatal("models with identical flat params disagree")
		}
	}
}

func TestLoadParamsLengthMismatch(t *testing.T) {
	r := rng.New(14)
	m := NewSequential(NewLinear(2, 2, r))
	if err := m.LoadParams(make([]float32, 3)); err == nil {
		t.Fatal("LoadParams accepted a wrong-length vector")
	}
}

func TestZeroGrad(t *testing.T) {
	r := rng.New(15)
	m := NewSequential(NewLinear(3, 3, r))
	x := tensor.New(2, 3)
	r.FillNormal(x.Data, 0, 1)
	y := m.Forward(x, true)
	g := tensor.New(y.Shape()...)
	for i := range g.Data {
		g.Data[i] = 1
	}
	m.Backward(g)
	nonzero := false
	for _, p := range m.Params() {
		for _, v := range p.Grad.Data {
			if v != 0 {
				nonzero = true
			}
		}
	}
	if !nonzero {
		t.Fatal("backward accumulated no gradient")
	}
	m.ZeroGrad()
	for _, p := range m.Params() {
		for _, v := range p.Grad.Data {
			if v != 0 {
				t.Fatal("ZeroGrad left nonzero gradient")
			}
		}
	}
}

func TestSequentialGradientEndToEnd(t *testing.T) {
	r := rng.New(16)
	model := NewSequential(
		NewConvBlock(1, 2, 3, r),
		NewFlatten(),
		NewLinear(2*3*3, 4, r),
	)
	x := tensor.New(2, 1, 8, 8)
	r.FillNormal(x.Data, 0, 1)
	checkInputGrad(t, model, x, r, fdEps)
	checkParamGrad(t, model, x, r, fdEps)
}
