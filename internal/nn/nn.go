// Package nn implements the neural-network substrate for the FedGuard
// reproduction: composable layers with explicit forward/backward passes,
// a Sequential container, and flat parameter (de)serialization — the
// "wire format" that federated clients ship to the server and that
// attacks manipulate.
//
// All layers operate on batched tensors: (B, features) for dense layers
// and (B, C, H, W) for spatial layers. A training forward leaves in the
// model what the model's Backward reads — for a ConvBlock, the input,
// the pooled output and the pool's winners — so a layer instance must
// not be shared between concurrent training loops; federated clients
// take turns on long-lived models, one holder at a time, each starting
// from Reset (see Resetter). An evaluation forward (train == false)
// computes the same bits and, through the conv blocks, keeps nothing for
// a backward pass.
//
// Buffer-reuse contract: layers own their output, gradient, and work
// tensors as scratch that is grown on demand and reused across steps, so
// a steady-state train loop performs no per-step layer allocations. The
// tensor a Forward or Backward call returns is therefore valid only
// until the next call of the same method on that layer instance; callers
// that need a result to survive (e.g. to ship it over the wire) must
// copy it out, as FlattenParams already does.
package nn

import (
	"fmt"

	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// Param is one learnable tensor together with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// Layer is a differentiable network stage.
type Layer interface {
	// Forward consumes a batched input and returns the batched output.
	// train toggles training-only behaviour (e.g. retaining what
	// Backward reads).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient w.r.t. the layer output, accumulates
	// parameter gradients, and returns the gradient w.r.t. the input.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's learnable parameters (possibly empty).
	Params() []Param
	// Name identifies the layer for debugging and serialization.
	Name() string
}

// Resetter is a layer whose constructor draws its initial parameters
// from an RNG. Reset(r) leaves the layer as that constructor would on r:
// the same parameters, the same r.State() afterwards, and nothing else
// that outlives a step. Work tensors keep their capacity and stale
// contents; every layer overwrites what it reads of them. So a
// long-lived model reset from r stands in for a model built from r, bit
// for bit, whatever it ran before.
type Resetter interface {
	Reset(r *rng.RNG)
}

// Sequential chains layers, feeding each layer's output to the next.
type Sequential struct {
	Layers []Layer

	params []Param // what Params returns, built on its first call
}

// NewSequential builds a container over the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward runs the full stack.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the stack in reverse, returning the gradient w.r.t. the
// original input.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Reset implements Resetter over the stack, in layer order — the order
// an architecture function constructs its layers in, so Reset(r) on a
// model of that architecture draws r exactly as building it anew would.
// A layer that has parameters and no Reset cannot be reproduced from r:
// that is a programming error.
func (s *Sequential) Reset(r *rng.RNG) {
	for _, l := range s.Layers {
		if rs, ok := l.(Resetter); ok {
			rs.Reset(r)
		} else if len(l.Params()) > 0 {
			panic(fmt.Sprintf("nn: layer %s has parameters and no Reset", l.Name()))
		}
	}
}

// Params returns every learnable parameter in layer order. The list is
// built once — LoadParams, ZeroGrad and the like walk it on every call,
// and an audit scoring job is a LoadParams and four forwards — so Layers
// must not change after the first call, and the returned slice is shared:
// read it, do not write it.
func (s *Sequential) Params() []Param {
	if s.params == nil {
		for _, l := range s.Layers {
			s.params = append(s.params, l.Params()...)
		}
		s.params = s.params[:len(s.params):len(s.params)]
	}
	return s.params
}

// Name implements Layer so Sequentials nest.
func (s *Sequential) Name() string { return "Sequential" }

// NumParams returns the total learnable scalar count.
func (s *Sequential) NumParams() int {
	n := 0
	for _, p := range s.Params() {
		n += p.Value.Len()
	}
	return n
}

// ZeroGrad clears all accumulated gradients.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		p.Grad.Zero()
	}
}

// FlattenParams serializes all parameter values into one flat vector in
// layer order — the representation exchanged in federated rounds.
func (s *Sequential) FlattenParams() []float32 {
	out := make([]float32, 0, s.NumParams())
	for _, p := range s.Params() {
		out = append(out, p.Value.Data...)
	}
	return out
}

// LoadParams copies a flat vector (as produced by FlattenParams on a
// model of identical architecture) into the parameter tensors. It returns
// an error if the length does not match.
func (s *Sequential) LoadParams(flat []float32) error {
	want := s.NumParams()
	if len(flat) != want {
		return fmt.Errorf("nn: LoadParams length %d, model has %d parameters", len(flat), want)
	}
	off := 0
	for _, p := range s.Params() {
		n := p.Value.Len()
		copy(p.Value.Data, flat[off:off+n])
		off += n
	}
	return nil
}

// Flatten reshapes (B, ...) to (B, rest) for the transition from spatial
// to dense layers. The forward and backward results are allocation-free
// views over the argument's storage, held in reusable headers.
type Flatten struct {
	inShape []int
	y, dx   tensor.Tensor
}

// NewFlatten constructs a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all non-batch dimensions.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape()...)
	f.y.Bind(x.Data, x.Dim(0), x.Len()/x.Dim(0))
	return &f.y
}

// Backward restores the original spatial shape.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	f.dx.Bind(grad.Data, f.inShape...)
	return &f.dx
}

// Params returns nil.
func (f *Flatten) Params() []Param { return nil }

// Name implements Layer.
func (f *Flatten) Name() string { return "Flatten" }
