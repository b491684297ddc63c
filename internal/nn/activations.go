package nn

import (
	"math"

	"fedguard/internal/tensor"
)

// Activation layers keep their output and input-gradient tensors as
// layer-owned scratch, grown on demand (tensor.Ensure) and reused across
// steps so the steady-state training loop allocates nothing here. The
// returned tensors are valid only until the next call on the same layer
// — the package contract (see the package comment) that a layer instance
// is never shared between concurrent training loops makes this safe.

// ReLU is the rectified linear activation, y = max(0, x).
//
// Both passes are branch-free selects on the float bit patterns: the
// sign of a pre-activation (and so the liveness of a gradient element)
// is a coin flip the branch predictor loses about every other element,
// which made the compare-and-branch loops the largest non-matmul cost of
// a training step. The backward mask is not stored: y > 0 exactly where
// x > 0, so Backward reads it off the retained output.
type ReLU struct {
	y  *tensor.Tensor
	dx *tensor.Tensor
}

// NewReLU constructs a ReLU activation.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies max(0, x) element-wise: x where x > 0, otherwise +0
// (also for -0 and NaN, like the comparison it replaces).
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.y = tensor.Ensure(r.y, x.Shape()...)
	y := r.y.Data[:len(x.Data)]
	for i, v := range x.Data {
		y[i] = math.Float32frombits(reluBits(v))
	}
	return r.y
}

// reluBits returns the bit pattern of max(0, v) as ReLU.Forward defines
// it. v > 0 ⇔ bits ∈ [1, 0x7f800000] (positive finite or +Inf) ⇔
// bits-1 < 0x7f800000 unsigned; the 64-bit difference's sign, smeared,
// is the all-ones/all-zeros select mask.
func reluBits(v float32) uint32 {
	bits := math.Float32bits(v)
	return bits & uint32((int64(bits-1)-0x7f800000)>>63)
}

// Backward zeroes gradients where the forward input was non-positive,
// i.e. where the retained output is +0.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if r.y == nil {
		panic("nn: ReLU Backward without a Forward")
	}
	r.dx = tensor.Ensure(r.dx, grad.Shape()...)
	dx := r.dx.Data[:len(grad.Data)]
	y := r.y.Data[:len(grad.Data)]
	for i, g := range grad.Data {
		// The output is +0 or positive: nonzero bits mean the unit fired.
		yb := math.Float32bits(y[i])
		keep := uint32(int32(yb|-yb) >> 31)
		dx[i] = math.Float32frombits(math.Float32bits(g) & keep)
	}
	return r.dx
}

// Params returns nil.
func (r *ReLU) Params() []Param { return nil }

// Name implements Layer.
func (r *ReLU) Name() string { return "ReLU" }

// Sigmoid is the logistic activation, y = 1/(1+e^-x). The paper's CVAE
// decoder ends in a sigmoid so outputs are valid pixel intensities.
type Sigmoid struct {
	y  *tensor.Tensor
	dx *tensor.Tensor
}

// NewSigmoid constructs a sigmoid activation.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Forward applies the logistic function element-wise, on tensor.Sigmoid:
// float32(1/(1+math.Exp(-float64(x)))) bit for bit, on vector lanes where
// the CPU has them.
func (s *Sigmoid) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	s.y = tensor.Ensure(s.y, x.Shape()...)
	tensor.Sigmoid(s.y.Data, x.Data)
	return s.y
}

// Backward uses dy/dx = y(1-y).
func (s *Sigmoid) Backward(grad *tensor.Tensor) *tensor.Tensor {
	s.dx = tensor.Ensure(s.dx, grad.Shape()...)
	for i, g := range grad.Data {
		y := s.y.Data[i]
		s.dx.Data[i] = g * y * (1 - y)
	}
	return s.dx
}

// Params returns nil.
func (s *Sigmoid) Params() []Param { return nil }

// Name implements Layer.
func (s *Sigmoid) Name() string { return "Sigmoid" }

// SoftmaxRow writes softmax(src) into dst with max-subtraction for
// stability. dst and src must have equal length.
func SoftmaxRow(dst, src []float32) {
	maxV := src[0]
	for _, v := range src[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range src {
		e := math.Exp(float64(v - maxV))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}
