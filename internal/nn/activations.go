package nn

import (
	"math"

	"fedguard/internal/rng"
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
		panic("nn: ReLU Backward without a Forward of its own (a conv block's ReLU keeps no output)")
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

// Forward applies the logistic function element-wise.
func (s *Sigmoid) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	s.y = tensor.Ensure(s.y, x.Shape()...)
	for i, v := range x.Data {
		s.y.Data[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
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

// Tanh is the hyperbolic tangent activation.
type Tanh struct {
	y  *tensor.Tensor
	dx *tensor.Tensor
}

// NewTanh constructs a tanh activation.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh element-wise.
func (t *Tanh) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	t.y = tensor.Ensure(t.y, x.Shape()...)
	for i, v := range x.Data {
		t.y.Data[i] = float32(math.Tanh(float64(v)))
	}
	return t.y
}

// Backward uses dy/dx = 1 - y².
func (t *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	t.dx = tensor.Ensure(t.dx, grad.Shape()...)
	for i, g := range grad.Data {
		y := t.y.Data[i]
		t.dx.Data[i] = g * (1 - y*y)
	}
	return t.dx
}

// Params returns nil.
func (t *Tanh) Params() []Param { return nil }

// Name implements Layer.
func (t *Tanh) Name() string { return "Tanh" }

// Softmax normalizes each row of a (B, classes) tensor into a probability
// distribution. Training uses the fused softmax-cross-entropy in package
// loss; this layer exists for inference-time probability output and for
// architectures that genuinely need an in-network softmax.
type Softmax struct {
	y  *tensor.Tensor
	dx *tensor.Tensor
}

// NewSoftmax constructs a softmax layer.
func NewSoftmax() *Softmax { return &Softmax{} }

// Forward computes a numerically stable row-wise softmax.
func (s *Softmax) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	b, n := x.Dim(0), x.Dim(1)
	s.y = tensor.Ensure(s.y, b, n)
	for i := 0; i < b; i++ {
		SoftmaxRow(s.y.Data[i*n:(i+1)*n], x.Data[i*n:(i+1)*n])
	}
	return s.y
}

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

// Backward applies the softmax Jacobian: dx = y ⊙ (g - <g, y>) row-wise.
func (s *Softmax) Backward(grad *tensor.Tensor) *tensor.Tensor {
	b, n := grad.Dim(0), grad.Dim(1)
	s.dx = tensor.Ensure(s.dx, b, n)
	for i := 0; i < b; i++ {
		g := grad.Data[i*n : (i+1)*n]
		y := s.y.Data[i*n : (i+1)*n]
		var dot float64
		for j := range g {
			dot += float64(g[j]) * float64(y[j])
		}
		for j := range g {
			s.dx.Data[i*n+j] = y[j] * (g[j] - float32(dot))
		}
	}
	return s.dx
}

// Params returns nil.
func (s *Softmax) Params() []Param { return nil }

// Name implements Layer.
func (s *Softmax) Name() string { return "Softmax" }

// Dropout randomly zeroes a fraction p of activations during training and
// rescales survivors by 1/(1-p) (inverted dropout). At inference it is
// the identity.
type Dropout struct {
	P   float64
	rng *rng.RNG

	mask []float32
	y    *tensor.Tensor
	dx   *tensor.Tensor
}

// NewDropout constructs a dropout layer with drop probability p using
// randomness from r.
func NewDropout(p float64, r *rng.RNG) *Dropout {
	if p < 0 || p >= 1 {
		panic("nn: Dropout probability must be in [0,1)")
	}
	return &Dropout{P: p, rng: r}
}

// Reset implements Resetter: the layer draws its masks from r from now
// on, as a NewDropout(p, r) layer would, and holds no mask.
func (d *Dropout) Reset(r *rng.RNG) {
	d.rng = r
	d.mask = nil
}

// Forward applies the dropout mask in training mode.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P == 0 {
		d.mask = nil
		return x
	}
	d.y = tensor.Ensure(d.y, x.Shape()...)
	if cap(d.mask) >= x.Len() {
		d.mask = d.mask[:x.Len()]
	} else {
		d.mask = make([]float32, x.Len())
	}
	scale := float32(1 / (1 - d.P))
	for i, v := range x.Data {
		if d.rng.Float64() >= d.P {
			d.mask[i] = scale
			d.y.Data[i] = v * scale
		} else {
			d.mask[i] = 0
			d.y.Data[i] = 0
		}
	}
	return d.y
}

// Backward applies the same mask to the gradient.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.mask == nil {
		return grad
	}
	d.dx = tensor.Ensure(d.dx, grad.Shape()...)
	for i, g := range grad.Data {
		d.dx.Data[i] = g * d.mask[i]
	}
	return d.dx
}

// Params returns nil.
func (d *Dropout) Params() []Param { return nil }

// Name implements Layer.
func (d *Dropout) Name() string { return "Dropout" }
