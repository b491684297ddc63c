package nn

import (
	"math"
	"reflect"
	"slices"
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

// TestMaxPool2x2MatchesGeneric holds the block's pool to its definition
// — the first strict maximum in row-major window order, value and
// winner — through a 1×1 identity convolution, on inputs full of ties
// (as behind a ReLU), on the special values, and on odd heights and
// widths.
func TestMaxPool2x2MatchesGeneric(t *testing.T) {
	r := rng.New(0x9001)
	for _, hw := range [][2]int{{2, 2}, {4, 6}, {5, 7}, {12, 12}, {24, 24}, {3, 9}} {
		h, w := hw[0], hw[1]
		x := tensor.New(3, 1, h, w)
		r.FillNormal(x.Data, 0, 1)
		for i := range x.Data {
			switch {
			case r.Float64() < 0.5:
				x.Data[i] = 0
			case r.Float64() < 0.1:
				x.Data[i] = specials[r.Intn(len(specials))]
			}
		}
		p := identityBlock()
		y := p.Forward(x, true)
		want, arg := refForward(p, x)
		if i := firstBitDiff(y.Data, want.Data); i >= 0 || !slices.Equal(p.argmax, arg) {
			t.Fatalf("%dx%d: pooled output or winners differ from the definition (first value at %d)", h, w, i)
		}
	}
}

// identityBlock returns a 1×1 block with the filter 1 and the bias 0:
// the ReLU and the pool alone.
func identityBlock() *ConvBlock {
	c := NewConvBlock(1, 1, 1, rng.New(1))
	c.W.Data[0] = 1
	return c
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
		wantDW, wantDB := clone(l.dW), clone(l.dB)

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

// clone returns a deep copy of x.
func clone(x *tensor.Tensor) *tensor.Tensor {
	return tensor.FromSlice(slices.Clone(x.Data), x.Shape()...)
}

// firstBitDiff returns the first index at which a and b differ as bit
// patterns (NaN payloads and the sign of zero included), or -1.
func firstBitDiff(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// blockShape is one conv layer of the conv-block tests.
type blockShape struct{ inC, outC, h, w, k int }

// blockShapes are both classifiers' layer shapes, shapes the tile
// kernels do not cover, and odd output heights and widths (the pool
// drops the last row and column).
var blockShapes = []blockShape{
	{1, 8, 28, 28, 5}, {8, 16, 12, 12, 5}, // small
	{1, 32, 28, 28, 5}, {32, 64, 12, 12, 5}, // paper
	{2, 10, 9, 11, 3},  // portable product: outC 10, outH 7, outW 9
	{3, 16, 11, 13, 5}, // outH 7, outW 9: portable, odd both ways
	{1, 8, 13, 12, 5},  // tiles (outW 8), outH 9 odd
	{2, 16, 13, 12, 5}, // the same on the 4x16 tiles
	{1, 8, 6, 6, 5},    // a single pool window
}

// blockConv returns a conv layer of shape s whose first three channels
// have the bias −1e6 (its whole pooled plane is +0), +Inf and NaN.
func blockConv(r *rng.RNG, s blockShape) *ConvBlock {
	conv := NewConvBlock(s.inC, s.outC, s.k, r)
	r.FillNormal(conv.B.Data, 0, 0.5)
	conv.B.Data[0] = -1e6
	conv.B.Data[1] = float32(math.Inf(1))
	conv.B.Data[2] = float32(math.NaN())
	return conv
}

// blockBatch returns b inputs of shape s with a blank band wide enough
// that whole pool windows see one value four times, and ±0, ±1 and
// ±denormal values scattered over the rest.
func blockBatch(r *rng.RNG, s blockShape, b int) *tensor.Tensor {
	x := tensor.New(b, s.inC, s.h, s.w)
	r.FillNormal(x.Data, 0, 1)
	for i := range x.Data {
		switch {
		case i/s.w%s.h < s.k+3 || i%s.w < 2: // a blank top band and margin
			x.Data[i] = 0
		case r.Float64() < 0.02:
			x.Data[i] = specials[r.Intn(6)]
		}
	}
	return x
}

// TestEvalConvBlockMatchesTraining holds an evaluation forward through
// a block — one pass per image, nothing retained — to the bits of its
// training forward, at every blockShape.
func TestEvalConvBlockMatchesTraining(t *testing.T) {
	r := rng.New(0xe7a1)
	for _, s := range blockShapes {
		for _, b := range []int{1, 3, 8} {
			block := blockConv(r, s)
			x := blockBatch(r, s, b)

			want := clone(block.Forward(x, true))
			got := block.Forward(x, false)
			if !reflect.DeepEqual(got.Shape(), want.Shape()) {
				t.Fatalf("%+v batch %d: eval block shape %v, want %v", s, b, got.Shape(), want.Shape())
			}
			if i := firstBitDiff(got.Data, want.Data); i >= 0 {
				t.Fatalf("%+v batch %d: eval block output %d = %v (bits %#x), training gives %v (bits %#x)",
					s, b, i, got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
			}
			plane := want.Dim(2) * want.Dim(3)
			for i := 0; i < plane; i++ {
				if math.Float32bits(want.Data[i]) != 0 || want.Data[plane+i] != float32(math.Inf(1)) || math.Float32bits(want.Data[2*plane+i]) != 0 {
					t.Fatalf("%+v: the -1e6, +Inf and NaN bias channels pooled to %v, %v, %v", s, want.Data[i], want.Data[plane+i], want.Data[2*plane+i])
				}
			}
		}
	}
}

// TestTrainConvBlockMatchesLayers holds the training block — one
// epilogue that pools and records the winners, one masked scatter back —
// to its three stages run one by one by their definitions (refForward,
// refBackward), bit for bit: the pooled output, the winners, the
// gradient that reaches the convolution, and dW, dB and dx, at every
// blockShape. The incoming gradient has −0 and +0 elements (the scatter
// must leave +0 + g, as a += into a zeroed buffer does). Each shape runs
// the batch sizes 8, 3, 1 on the same block, so the gradients accumulate
// over three steps and every scratch tensor is reused at a smaller size.
func TestTrainConvBlockMatchesLayers(t *testing.T) {
	r := rng.New(0xb10c)
	for _, s := range blockShapes {
		block := blockConv(r, s)
		wantDW, wantDB := clone(block.dW), clone(block.dB)
		for _, b := range []int{8, 3, 1} {
			x := blockBatch(r, s, b)
			want, arg := refForward(block, x)
			got := block.Forward(x, true)
			if i := firstBitDiff(got.Data, want.Data); i >= 0 || !reflect.DeepEqual(got.Shape(), want.Shape()) {
				t.Fatalf("%+v batch %d: block output differs from the definition at %d (shape %v, want %v)", s, b, i, got.Shape(), want.Shape())
			}
			if !slices.Equal(block.argmax, arg) {
				t.Fatalf("%+v batch %d: block winners differ from the definition", s, b)
			}

			g := tensor.New(want.Shape()...)
			r.FillNormal(g.Data, 0, 1)
			for i := 0; i < len(g.Data); i += 3 {
				g.Data[i] = specials[i%2] // +0, −0
			}
			wantGrad, wantDx := refBackward(block, x, want, arg, g, wantDW, wantDB)
			gotDx := block.Backward(g)
			for _, c := range []struct {
				name      string
				got, want *tensor.Tensor
			}{
				{"conv-output gradient", block.dConv, wantGrad},
				{"dW", block.dW, wantDW}, {"dB", block.dB, wantDB}, {"dx", gotDx, wantDx},
			} {
				if i := firstBitDiff(c.got.Data, c.want.Data); i >= 0 {
					t.Fatalf("%+v batch %d: %s[%d] = %v (bits %#x), the definition gives %v (bits %#x)", s, b, c.name,
						i, c.got.Data[i], math.Float32bits(c.got.Data[i]), c.want.Data[i], math.Float32bits(c.want.Data[i]))
				}
			}
		}
	}
}

// TestBlockKeepsNoReLUMask pins that a training forward writes no
// unpooled activation: what Backward needs of the ReLU is read off the
// pooled output and the winners, so after a forward the block's only
// batch-sized tensors are those two, and the conv-output gradient
// buffer first appears with Backward.
func TestBlockKeepsNoReLUMask(t *testing.T) {
	r := rng.New(0xe7a3)
	block := NewConvBlock(1, 8, 5, r)
	x := tensor.New(4, 1, 28, 28)
	r.FillNormal(x.Data, 0, 1)
	y := block.Forward(x, true)
	pooled := 4 * 8 * 12 * 12
	if cap(y.Data) != pooled || cap(block.argmax) != pooled || block.dConv != nil {
		t.Fatalf("a training forward holds output %d, winners %d and a conv-output buffer %v; want %d, %d and none",
			cap(y.Data), cap(block.argmax), block.dConv != nil, pooled, pooled)
	}
	if got, want := cap(block.prod.Data), 24*24*8; got != want {
		t.Fatalf("the product scratch holds %d floats, want one image's %d", got, want)
	}
}

// TestEvalForwardRetainsNothing pins what an evaluation forward leaves
// behind: no input (an audit model must not pin the round's synthetic
// set), no winners, and a Backward that says which layer was never
// given a training forward instead of reading stale scratch — also
// right after a training forward whose Backward would have worked.
func TestEvalForwardRetainsNothing(t *testing.T) {
	r := rng.New(0xe7a2)
	block := NewConvBlock(1, 8, 5, r)
	x := tensor.New(4, 1, 28, 28)
	r.FillNormal(x.Data, 0, 1)

	y := block.Forward(x, false)
	if block.x != nil || block.cols != nil && tensor.HasVectorKernels() || block.argmax != nil {
		t.Fatalf("an evaluation-only block holds x=%v cols=%v argmax=%d", block.x, block.cols, len(block.argmax))
	}
	if y.Dim(2) != 12 || y.Dim(3) != 12 {
		t.Fatalf("eval block output shape %v", y.Shape())
	}
	for _, prepare := range []func(){
		func() {},
		func() { block.Forward(x, true); block.Forward(x, false) },
	} {
		prepare()
		func() {
			defer func() {
				if msg, _ := recover().(string); msg != "nn: ConvBlock(1->8, 5x5) Backward without a training Forward" {
					t.Fatalf("Backward after an evaluation forward: recovered %q", msg)
				}
			}()
			block.Backward(tensor.New(4, 8, 12, 12))
			t.Fatal("Backward after an evaluation forward returned")
		}()
	}
}
