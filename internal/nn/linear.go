package nn

import (
	"fmt"
	"math"

	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// Linear is a fully connected layer: y = x @ Wᵀ + b, with W of shape
// (out, in) and x of shape (B, in). Output and input-gradient tensors
// are layer-owned scratch reused across steps; they remain valid only
// until the next call on this layer.
type Linear struct {
	In, Out int
	W, B    *tensor.Tensor
	dW, dB  *tensor.Tensor // nil on a NewLinearView layer

	// InputGradOff, when set, makes Backward skip dx = grad @ W and
	// return nil — the twin of ConvBlock.InputGradOff, for a network whose
	// first layer is dense. Parameter gradients are unaffected.
	InputGradOff bool

	x  *tensor.Tensor // retained input for backward
	y  *tensor.Tensor // forward scratch
	dx *tensor.Tensor // backward scratch

	// Vector-kernel forward scratch: xᵀ and yᵀ = W @ xᵀ, their batch
	// dimension padded to a multiple of batchLanes.
	xT, yT *tensor.Tensor
}

// batchLanes is the vector kernels' column granularity: Forward pads
// the batch to a multiple of it, so no batch size (the 4-row training
// tail, the audit's 6-sample blocks, its 100-row set) leaves columns to
// the kernels' scalar tail.
const batchLanes = 8

// NewLinear constructs a fully connected layer with He-uniform
// initialization drawn from r.
func NewLinear(in, out int, r *rng.RNG) *Linear {
	l := &Linear{
		In:  in,
		Out: out,
		W:   tensor.New(out, in),
		B:   tensor.New(out),
		dW:  tensor.New(out, in),
		dB:  tensor.New(out),
	}
	l.Reset(r)
	return l
}

// Reset implements Resetter: W redrawn He-uniform from r, the bias and
// both gradients zero — what NewLinear leaves, which is this.
func (l *Linear) Reset(r *rng.RNG) {
	if l.dW == nil {
		panic(fmt.Sprintf("nn: Reset on the inference-only view Linear(%d->%d)", l.In, l.Out))
	}
	bound := math.Sqrt(6.0 / float64(l.In))
	r.FillUniform(l.W.Data, -bound, bound)
	l.B.Zero()
	l.dW.Zero()
	l.dB.Zero()
}

// NewLinearView builds an inference-only layer over parameters stored
// elsewhere: W aliases w (out·in values, row-major (out, in) — the order
// FlattenParams writes) and B aliases b (out values). Nothing is copied,
// drawn or allocated beyond the headers, and Forward only reads the two
// slices, so any number of views may share one flat vector, concurrently.
// A view has no gradients: Backward on it is a programming error, and
// Params reports nil Grad tensors.
func NewLinearView(in, out int, w, b []float32) *Linear {
	return &Linear{
		In:  in,
		Out: out,
		W:   tensor.FromSlice(w, out, in),
		B:   tensor.FromSlice(b, out),
	}
}

// Forward computes y = x @ Wᵀ + b for x of shape (B, in). W is read as
// it is stored: on the vector kernels the product is taken as
// yᵀ = W @ xᵀ — the batch, the small operand, is what gets transposed —
// and the bias is added while yᵀ is transposed back. Every y[i][j] is
// one sum over in ascending from +0 either way, so the vector path and
// the scalar MatMulT give the same bits at any batch size.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: Linear(%d->%d) got input shape %v", l.In, l.Out, x.Shape()))
	}
	l.x = x
	b := x.Dim(0)
	l.y = tensor.Ensure(l.y, b, l.Out)
	if tensor.HasVectorKernels() {
		bp := (b + batchLanes - 1) / batchLanes * batchLanes
		l.xT = tensor.Ensure(l.xT, l.In, bp)
		l.yT = tensor.Ensure(l.yT, l.Out, bp)
		transposePadded(l.xT.Data, x.Data, b, l.In, bp)
		tensor.MatMul(l.yT, l.W, l.xT)
		transposeAddBias(l.y.Data, l.yT.Data, l.B.Data, b, l.Out, bp)
		return l.y
	}
	tensor.MatMulT(l.y, x, l.W)
	for i := 0; i < b; i++ {
		row := l.y.Data[i*l.Out : (i+1)*l.Out]
		for j := range row {
			row[j] += l.B.Data[j]
		}
	}
	return l.y
}

// transposePadded writes xᵀ for x of shape (b, in) into dst of shape
// (in, bp), bp the batch rounded up to batchLanes: dst[p][i] = x[i][p],
// and zero in the padded lanes b ≤ i < bp (each lane of the product is
// independent, and the padded ones are dropped by transposeAddBias).
// Eight rows of x stream in step so every store run is one full lane
// group; the plain two-level loop measured 15 % slower on the forward
// pass of the CVAE's wide layers, and as much again in
// transposeAddBias.
func transposePadded(dst, x []float32, b, in, bp int) {
	i := 0
	for ; i+batchLanes <= b; i += batchLanes {
		r0 := x[(i+0)*in : (i+0)*in+in]
		r1 := x[(i+1)*in : (i+1)*in+in]
		r2 := x[(i+2)*in : (i+2)*in+in]
		r3 := x[(i+3)*in : (i+3)*in+in]
		r4 := x[(i+4)*in : (i+4)*in+in]
		r5 := x[(i+5)*in : (i+5)*in+in]
		r6 := x[(i+6)*in : (i+6)*in+in]
		r7 := x[(i+7)*in : (i+7)*in+in]
		for p := 0; p < in; p++ {
			d := dst[p*bp+i : p*bp+i+batchLanes]
			d[0], d[1], d[2], d[3] = r0[p], r1[p], r2[p], r3[p]
			d[4], d[5], d[6], d[7] = r4[p], r5[p], r6[p], r7[p]
		}
	}
	if i == b {
		return
	}
	rows := b - i
	for p := 0; p < in; p++ {
		d := dst[p*bp+i : p*bp+i+batchLanes]
		for r := range d {
			if r < rows {
				d[r] = x[(i+r)*in+p]
			} else {
				d[r] = 0
			}
		}
	}
}

// transposeAddBias writes y[i][j] = yT[j][i] + bias[j] for yT of shape
// (out, bp) and y of shape (b, out), reading only the first b lanes of
// each yT row.
func transposeAddBias(y, yT, bias []float32, b, out, bp int) {
	j := 0
	for ; j+8 <= out; j += 8 {
		t0 := yT[(j+0)*bp : (j+0)*bp+b]
		t1 := yT[(j+1)*bp : (j+1)*bp+b]
		t2 := yT[(j+2)*bp : (j+2)*bp+b]
		t3 := yT[(j+3)*bp : (j+3)*bp+b]
		t4 := yT[(j+4)*bp : (j+4)*bp+b]
		t5 := yT[(j+5)*bp : (j+5)*bp+b]
		t6 := yT[(j+6)*bp : (j+6)*bp+b]
		t7 := yT[(j+7)*bp : (j+7)*bp+b]
		bj := bias[j : j+8]
		b0, b1, b2, b3, b4, b5, b6, b7 := bj[0], bj[1], bj[2], bj[3], bj[4], bj[5], bj[6], bj[7]
		for i := 0; i < b; i++ {
			d := y[i*out+j : i*out+j+8]
			d[0], d[1], d[2], d[3] = t0[i]+b0, t1[i]+b1, t2[i]+b2, t3[i]+b3
			d[4], d[5], d[6], d[7] = t4[i]+b4, t5[i]+b5, t6[i]+b6, t7[i]+b7
		}
	}
	for ; j < out; j++ {
		t, bj := yT[j*bp:j*bp+b], bias[j]
		for i, v := range t {
			y[i*out+j] = v + bj
		}
	}
}

// Backward accumulates dW += gradᵀ @ x and dB += colsum(grad), returning
// dx = grad @ W (nil with InputGradOff).
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.dW == nil {
		panic(fmt.Sprintf("nn: Backward on the inference-only view Linear(%d->%d)", l.In, l.Out))
	}
	b := grad.Dim(0)
	if grad.Dim(1) != l.Out {
		panic(fmt.Sprintf("nn: Linear(%d->%d) got gradient shape %v", l.In, l.Out, grad.Shape()))
	}
	// dW[j][k] += sum_i grad[i][j] * x[i][k], accumulated in place — no
	// scratch tensor, bit-identical to the scratch-plus-AXPY formulation.
	tensor.MatMulTAAcc(l.dW, grad, l.x)
	for i := 0; i < b; i++ {
		row := grad.Data[i*l.Out : (i+1)*l.Out]
		for j, g := range row {
			l.dB.Data[j] += g
		}
	}
	if l.InputGradOff {
		return nil
	}
	l.dx = tensor.Ensure(l.dx, b, l.In)
	tensor.MatMul(l.dx, grad, l.W)
	return l.dx
}

// Params returns the weight and bias with their gradients.
func (l *Linear) Params() []Param {
	return []Param{
		{Name: "W", Value: l.W, Grad: l.dW},
		{Name: "b", Value: l.B, Grad: l.dB},
	}
}

// Name implements Layer.
func (l *Linear) Name() string { return fmt.Sprintf("Linear(%d->%d)", l.In, l.Out) }
