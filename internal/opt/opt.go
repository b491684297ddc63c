// Package opt implements the first-order optimizers used to train the
// federated classifier and the CVAE: plain SGD, SGD with momentum, and
// Adam. Both reset in place, so a long-lived model keeps its optimizer's
// buffers across trainings.
//
// An Optimizer binds to a parameter set once and then advances it each
// Step using the gradients accumulated by the layers' backward passes.
package opt

import (
	"math"

	"fedguard/internal/nn"
	"fedguard/internal/tensor"
)

// Optimizer advances model parameters using their accumulated gradients.
type Optimizer interface {
	// Step applies one update and leaves gradients untouched (callers zero
	// them via the model's ZeroGrad).
	Step()
}

// SGD is stochastic gradient descent, optionally with classical momentum.
type SGD struct {
	params   []nn.Param
	lr       float64
	momentum float64
	velocity []*tensor.Tensor
}

// NewSGD builds an SGD optimizer over params. momentum 0 disables the
// velocity buffers.
func NewSGD(params []nn.Param, lr, momentum float64) *SGD {
	s := &SGD{params: params}
	s.Reset(lr, momentum)
	return s
}

// Reset leaves the optimizer as NewSGD over the same parameters would
// build it — these hyperparameters, zero velocity — and keeps the
// velocity buffers it already has.
func (s *SGD) Reset(lr, momentum float64) {
	s.lr, s.momentum = lr, momentum
	if momentum == 0 {
		s.velocity = nil
		return
	}
	if s.velocity == nil {
		s.velocity = make([]*tensor.Tensor, len(s.params))
		for i, p := range s.params {
			s.velocity[i] = tensor.New(p.Value.Shape()...)
		}
		return
	}
	for _, v := range s.velocity {
		v.Zero()
	}
}

// Step applies one SGD update.
func (s *SGD) Step() {
	lr := float32(s.lr)
	for i, p := range s.params {
		g := p.Grad.Data
		v := p.Value.Data
		if s.velocity != nil {
			vel := s.velocity[i].Data
			mom := float32(s.momentum)
			for j := range v {
				vel[j] = mom*vel[j] + g[j]
				v[j] -= lr * vel[j]
			}
		} else {
			for j := range v {
				v[j] -= lr * g[j]
			}
		}
	}
}

// Adam is the Adam optimizer (Kingma & Ba, 2015) with bias correction.
type Adam struct {
	params []nn.Param
	lr     float64
	beta1  float64
	beta2  float64
	eps    float64
	step   int
	m, v   []*tensor.Tensor
}

// NewAdam builds an Adam optimizer with the standard defaults
// beta1=0.9, beta2=0.999, eps=1e-8.
func NewAdam(params []nn.Param, lr float64) *Adam {
	a := &Adam{params: params, lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	a.m = make([]*tensor.Tensor, len(params))
	a.v = make([]*tensor.Tensor, len(params))
	for i, p := range params {
		a.m[i] = tensor.New(p.Value.Shape()...)
		a.v[i] = tensor.New(p.Value.Shape()...)
	}
	return a
}

// Reset leaves the optimizer as NewAdam over the same parameters would
// build it — this learning rate, zero moments, step 0 — and keeps the
// moment buffers it already has.
func (a *Adam) Reset(lr float64) {
	a.lr, a.step = lr, 0
	for i := range a.m {
		a.m[i].Zero()
		a.v[i].Zero()
	}
}

// Step applies one Adam update.
func (a *Adam) Step() {
	a.step++
	b1c := 1 - math.Pow(a.beta1, float64(a.step))
	b2c := 1 - math.Pow(a.beta2, float64(a.step))
	lr := a.lr * math.Sqrt(b2c) / b1c
	for i, p := range a.params {
		adamStep(p.Value.Data, p.Grad.Data, a.m[i].Data, a.v[i].Data, float32(a.beta1), float32(a.beta2), lr, a.eps)
	}
}

// adamStep advances one parameter tensor: float32 moment updates, then
// the step lr·m/(√v+eps) in float64, rounded to float32 once. With AVX
// the kernel takes every full group of four parameters and the loop
// below the rest; both produce the same bits, so a tensor's length (or
// a purego build) never shows in the weights.
func adamStep(val, g, m, v []float32, b1, b2 float32, lr, eps float64) {
	g, m, v = g[:len(val)], m[:len(val)], v[:len(val)]
	j := 0
	if n4 := len(val) &^ 3; useAVX && n4 > 0 {
		adamStepAVX(&val[0], &g[0], &m[0], &v[0], n4, b1, 1-b1, b2, 1-b2, lr, eps)
		j = n4
	}
	for ; j < len(val); j++ {
		gj := g[j]
		m[j] = b1*m[j] + (1-b1)*gj
		v[j] = b2*v[j] + (1-b2)*gj*gj
		val[j] -= float32(lr * float64(m[j]) / (math.Sqrt(float64(v[j])) + eps))
	}
}
