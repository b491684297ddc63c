package nn

import (
	"math"
	"testing"

	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// specials are the float32 values on which a bit-pattern select and a
// float comparison could disagree.
var specials = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1,
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.MaxFloat32, -math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.Float32frombits(0xffc00001), // NaN with the sign bit set
}

// TestReLUMatchesComparison holds the branch-free ReLU to the loop it
// replaced — y = x if x > 0 else +0, dx = g where x > 0 else +0 — bit
// for bit, on random data and on every special value as input and as
// gradient.
func TestReLUMatchesComparison(t *testing.T) {
	r := rng.New(0x4e10)
	x := tensor.New(4, 64)
	g := tensor.New(4, 64)
	r.FillNormal(x.Data, 0, 1)
	r.FillNormal(g.Data, 0, 1)
	for i, v := range specials {
		x.Data[i] = v
		g.Data[len(g.Data)-1-i] = v
		g.Data[i] = specials[(i+3)%len(specials)]
	}
	l := NewReLU()
	y := l.Forward(x, true)
	dx := l.Backward(g)
	for i, v := range x.Data {
		var wantY, wantDx float32
		if v > 0 {
			wantY, wantDx = v, g.Data[i]
		}
		if math.Float32bits(y.Data[i]) != math.Float32bits(wantY) {
			t.Fatalf("forward(%v) = %v (bits %#x), want %v", v, y.Data[i], math.Float32bits(y.Data[i]), wantY)
		}
		if math.Float32bits(dx.Data[i]) != math.Float32bits(wantDx) {
			t.Fatalf("backward at x=%v, g=%v: %v (bits %#x), want %v", v, g.Data[i], dx.Data[i], math.Float32bits(dx.Data[i]), wantDx)
		}
	}
}

// TestMaxPool2x2MatchesGeneric holds the 2×2 fast path to the generic
// window loop's definition — the first strict maximum in row-major
// window order, value and argmax — on ReLU-like inputs full of ties, on
// the special values, and on odd heights and widths.
func TestMaxPool2x2MatchesGeneric(t *testing.T) {
	r := rng.New(0x9001)
	for _, hw := range [][2]int{{2, 2}, {4, 6}, {5, 7}, {12, 12}, {24, 24}, {3, 9}} {
		h, w := hw[0], hw[1]
		x := tensor.New(3, 2, h, w)
		r.FillNormal(x.Data, 0, 1)
		for i := range x.Data {
			switch {
			case r.Float64() < 0.5:
				x.Data[i] = 0 // ties, as behind a ReLU
			case r.Float64() < 0.1:
				x.Data[i] = specials[r.Intn(len(specials))]
			}
		}
		p := NewMaxPool2D(2, 2)
		y := p.Forward(x, true)
		outH, outW := h/2, w/2
		for plane := 0; plane < 3*2; plane++ {
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					bestIdx := plane*h*w + 2*oy*w + 2*ox
					best := x.Data[bestIdx]
					for _, d := range []int{1, w, w + 1} {
						if v := x.Data[plane*h*w+2*oy*w+2*ox+d]; v > best {
							best, bestIdx = v, plane*h*w+2*oy*w+2*ox+d
						}
					}
					out := (plane*outH+oy)*outW + ox
					if math.Float32bits(y.Data[out]) != math.Float32bits(best) || int(p.argmax[out]) != bestIdx {
						t.Fatalf("%dx%d plane %d (%d,%d): got %v@%d, want %v@%d",
							h, w, plane, oy, ox, y.Data[out], p.argmax[out], best, bestIdx)
					}
				}
			}
		}
	}
}

// TestLinearInputGradOff runs the same layer twice over the same batch
// and gradient, once returning dx and once with InputGradOff: dW and dB
// must be the same bits — the skipped product feeds neither — and the
// second call returns no input gradient, alone and through a Sequential.
func TestLinearInputGradOff(t *testing.T) {
	r := rng.New(0x1960)
	for _, s := range [][3]int{{32, 794, 256}, {4, 794, 256}, {5, 30, 7}} {
		b, in, out := s[0], s[1], s[2]
		l := NewLinear(in, out, r)
		x, g := tensor.New(b, in), tensor.New(b, out)
		r.FillNormal(x.Data, 0, 1)
		r.FillNormal(g.Data, 0, 1)

		l.Forward(x, true)
		if dx := l.Backward(g); dx == nil || dx.Dim(0) != b || dx.Dim(1) != in {
			t.Fatalf("%v: Backward returned %v, want a (%d,%d) input gradient", s, dx, b, in)
		}
		wantDW, wantDB := l.dW.Clone(), l.dB.Clone()

		l.dW.Zero()
		l.dB.Zero()
		l.InputGradOff = true
		seq := NewSequential(l)
		seq.Forward(x, true)
		if dx := seq.Backward(g); dx != nil {
			t.Fatalf("%v: Backward with InputGradOff returned %v, want nil", s, dx.Shape())
		}
		if !bitEqual(l.dW.Data, wantDW.Data) || !bitEqual(l.dB.Data, wantDB.Data) {
			t.Fatalf("%v: InputGradOff changed the parameter gradients", s)
		}
	}
}

// TestLinearForwardBitwise holds Forward to its definition — y[i][j] is
// the sum over k ascending of x[i][k]·W[j][k], one float32 accumulator
// from +0, plus b[j] — bit for bit, at the dense layers' shapes and every
// batch size on both sides of a lane group, with half the activations
// zero as behind a ReLU. The same batch through a NewLinearView over a
// flat copy of the parameters must give the same bits without writing
// the flat vector; alternating batch sizes on one layer checks that
// reshaped scratch carries nothing over.
func TestLinearForwardBitwise(t *testing.T) {
	r := rng.New(0xf0a4d)
	for _, s := range [][2]int{{12, 256}, {256, 794}, {794, 256}, {256, 2}, {256, 64}, {64, 10}} {
		in, out := s[0], s[1]
		l := NewLinear(in, out, r)
		r.FillNormal(l.B.Data, 0, 1)
		flat := append(append([]float32(nil), l.W.Data...), l.B.Data...)
		view := NewLinearView(in, out, flat[:out*in], flat[out*in:])
		for _, b := range []int{32, 1, 3, 4, 6, 7, 8, 9, 31, 33, 100, 4, 32} {
			x := tensor.New(b, in)
			r.FillNormal(x.Data, 0, 1)
			for i := range x.Data {
				if r.Float64() < 0.5 {
					x.Data[i] = 0
				}
			}
			want := make([]float32, b*out)
			for i := 0; i < b; i++ {
				for j := 0; j < out; j++ {
					var acc float32
					for k := 0; k < in; k++ {
						acc += x.Data[i*in+k] * l.W.Data[j*in+k]
					}
					want[i*out+j] = acc + l.B.Data[j]
				}
			}
			for name, layer := range map[string]*Linear{"owned": l, "view": view} {
				y := layer.Forward(x, false)
				if y.Dim(0) != b || y.Dim(1) != out {
					t.Fatalf("%s Linear(%d->%d) batch %d: output shape %v", name, in, out, b, y.Shape())
				}
				for i, w := range want {
					if math.Float32bits(y.Data[i]) != math.Float32bits(w) {
						t.Fatalf("%s Linear(%d->%d) batch %d: y[%d][%d] = %v (bits %#x), want %v (bits %#x)",
							name, in, out, b, i/out, i%out, y.Data[i], math.Float32bits(y.Data[i]), w, math.Float32bits(w))
					}
				}
			}
		}
		if !bitEqual(flat[:out*in], l.W.Data) || !bitEqual(flat[out*in:], l.B.Data) {
			t.Fatalf("Linear(%d->%d): a view's Forward wrote its parameters", in, out)
		}
	}
}

// TestLinearViewBackwardPanics pins that a view is inference-only:
// Backward on it is a programming error with a message that says so,
// not a nil dereference inside a kernel.
func TestLinearViewBackwardPanics(t *testing.T) {
	view := NewLinearView(3, 2, make([]float32, 6), make([]float32, 2))
	view.Forward(tensor.New(1, 3), false)
	defer func() {
		if msg, _ := recover().(string); msg != "nn: Backward on the inference-only view Linear(3->2)" {
			t.Fatalf("Backward on a view: recovered %q", msg)
		}
	}()
	view.Backward(tensor.New(1, 2))
}
