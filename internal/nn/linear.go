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
	dW, dB  *tensor.Tensor

	// InputGradOff, when set, makes Backward skip dx = grad @ W and
	// return nil — the twin of Conv2D.InputGradOff, for a network whose
	// first layer is dense. Parameter gradients are unaffected.
	InputGradOff bool

	x  *tensor.Tensor // retained input for backward
	y  *tensor.Tensor // forward scratch
	dx *tensor.Tensor // backward scratch
	wT *tensor.Tensor // transposed-weight scratch for the vector kernels
}

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
	bound := math.Sqrt(6.0 / float64(in))
	r.FillUniform(l.W.Data, -bound, bound)
	return l
}

// Forward computes y = x @ Wᵀ + b for x of shape (B, in).
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: Linear(%d->%d) got input shape %v", l.In, l.Out, x.Shape()))
	}
	l.x = x
	b := x.Dim(0)
	l.y = tensor.Ensure(l.y, b, l.Out)
	if tensor.HasVectorKernels() {
		// x @ Wᵀ as a plain product against a transposed-weight scratch:
		// the O(in·out) transpose buys the SIMD kernel for the O(B·in·out)
		// matmul. Both forms sum over in ascending — bit-identical.
		l.wT = tensor.Ensure(l.wT, l.In, l.Out)
		tensor.TransposeInto(l.wT, l.W)
		tensor.MatMul(l.y, x, l.wT)
	} else {
		tensor.MatMulT(l.y, x, l.W)
	}
	for i := 0; i < b; i++ {
		row := l.y.Data[i*l.Out : (i+1)*l.Out]
		for j := range row {
			row[j] += l.B.Data[j]
		}
	}
	return l.y
}

// Backward accumulates dW += gradᵀ @ x and dB += colsum(grad), returning
// dx = grad @ W (nil with InputGradOff).
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
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
