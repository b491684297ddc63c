package nn

import (
	"reflect"
	"strings"
	"testing"

	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// resetStack is a stack with every kind of layer Reset has to handle:
// drawn parameters (conv, dense) and layers with scratch only.
func resetStack(r *rng.RNG) *Sequential {
	return NewSequential(
		NewConvBlock(1, 2, 3, r),
		NewFlatten(),
		NewLinear(2*3*3, 4, r),
	)
}

// step runs one forward and backward pass in training mode and moves
// every parameter, so the model is as dirty as training leaves it.
func step(m *Sequential, batch int, r *rng.RNG) *tensor.Tensor {
	x := tensor.New(batch, 1, 8, 8)
	r.FillNormal(x.Data, 0, 1)
	y := m.Forward(x, true)
	out := tensor.New(y.Shape()...)
	copy(out.Data, y.Data)
	g := tensor.New(y.Shape()...)
	for i := range g.Data {
		g.Data[i] = 1
	}
	m.Backward(g)
	for _, p := range m.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] -= 0.1 * p.Grad.Data[i]
		}
	}
	return out
}

// TestResetEqualsConstruct states Resetter's contract on a whole stack:
// Reset(r) on a model that has trained (other batch sizes, other
// parameters, another stream) leaves the parameters, the
// gradients and r where constructing from r leaves them, and the next
// training step computes the same bits.
func TestResetEqualsConstruct(t *testing.T) {
	fresh, dirty := rng.New(7), rng.New(7)
	want := resetStack(fresh)

	other := rng.New(99)
	got := resetStack(other)
	step(got, 5, other)
	step(got, 2, other)
	got.Reset(dirty)

	if fresh.State() != dirty.State() {
		t.Fatalf("Reset left the stream at %+v, construction at %+v", dirty.State(), fresh.State())
	}
	for i, p := range got.Params() {
		q := want.Params()[i]
		if !reflect.DeepEqual(p.Value.Data, q.Value.Data) {
			t.Fatalf("parameter %d (%s) differs from a constructed one", i, p.Name)
		}
		if !reflect.DeepEqual(p.Grad.Data, q.Grad.Data) {
			t.Fatalf("gradient %d (%s) is not what construction leaves", i, p.Name)
		}
	}
	// One more step on each, drawing inputs from the two (equal) streams:
	// outputs, parameters and streams stay equal.
	a, b := step(want, 3, fresh), step(got, 3, dirty)
	if !reflect.DeepEqual(a.Data, b.Data) {
		t.Fatal("the step after Reset computed a different output")
	}
	if !reflect.DeepEqual(want.FlattenParams(), got.FlattenParams()) {
		t.Fatal("the step after Reset moved the parameters differently")
	}
	if fresh.State() != dirty.State() {
		t.Fatal("the step after Reset drew the stream differently")
	}
}

// TestResetRefusesUnresettableParams pins the programming error: a layer
// that owns parameters and cannot redraw them would keep the previous
// borrower's.
func TestResetRefusesUnresettableParams(t *testing.T) {
	r := rng.New(1)
	m := NewSequential(NewReLU(), &opaque{NewLinear(2, 2, r)})
	defer func() {
		if p := recover(); p == nil || !strings.Contains(p.(string), "no Reset") {
			t.Fatalf("Reset on an unresettable layer: recovered %v", p)
		}
	}()
	m.Reset(r)
}

// opaque hides its layer's Reset behind the bare Layer interface.
type opaque struct{ Layer }
