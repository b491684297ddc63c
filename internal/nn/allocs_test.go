//go:build !race

// Allocation-regression pins. They live behind !race because the race
// detector instruments allocations and inflates the counts.

package nn

import (
	"testing"

	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// TestConvForwardAllocsSteadyState pins the scratch-reuse property: once
// warmed up, Conv2D.Forward allocates nothing — no per-batch-item
// tensors, no dispatch closures (the kernel pool ships typed tasks), no
// escaping shape slices.
func TestConvForwardAllocsSteadyState(t *testing.T) {
	r := rng.New(0xa110c)
	conv := NewConv2D(1, 32, 5, 5, r)
	x := tensor.New(8, 1, 28, 28)
	r.FillNormal(x.Data, 0, 1)
	conv.Forward(x, true) // warm up scratch
	allocs := testing.AllocsPerRun(20, func() { conv.Forward(x, true) })
	if allocs > 0 {
		t.Fatalf("steady-state Conv2D.Forward allocates %.1f/op, want 0", allocs)
	}
}

// TestConvBackwardAllocsSteadyState pins the same property for Backward,
// including the per-image dW accumulation (Bind views, no fresh tensors).
func TestConvBackwardAllocsSteadyState(t *testing.T) {
	r := rng.New(0xa110d)
	conv := NewConv2D(1, 32, 5, 5, r)
	x := tensor.New(8, 1, 28, 28)
	r.FillNormal(x.Data, 0, 1)
	y := conv.Forward(x, true)
	g := tensor.New(y.Shape()...)
	r.FillNormal(g.Data, 0, 1)
	conv.Backward(g) // warm up scratch
	allocs := testing.AllocsPerRun(20, func() { conv.Backward(g) })
	if allocs > 0 {
		t.Fatalf("steady-state Conv2D.Backward allocates %.1f/op, want 0", allocs)
	}
}

// TestLinearAllocsSteadyState pins Linear forward+backward scratch reuse.
func TestLinearAllocsSteadyState(t *testing.T) {
	r := rng.New(0xa110e)
	lin := NewLinear(256, 64, r)
	x := tensor.New(32, 256)
	g := tensor.New(32, 64)
	r.FillNormal(x.Data, 0, 1)
	r.FillNormal(g.Data, 0, 1)
	lin.Forward(x, true)
	lin.Backward(g)
	allocs := testing.AllocsPerRun(20, func() {
		lin.Forward(x, true)
		lin.Backward(g)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Linear step allocates %.1f/op, want 0", allocs)
	}
}

// TestLinearForwardAllocsAlternatingBatches pins that the forward
// scratch (output, transposed batch, transposed product) is sized once
// by the largest batch: a full batch, the epoch's 4-row tail and a full
// batch again only reshape it.
func TestLinearForwardAllocsAlternatingBatches(t *testing.T) {
	r := rng.New(0xa110f)
	lin := NewLinear(794, 256, r)
	full, tail := tensor.New(32, 794), tensor.New(4, 794)
	r.FillNormal(full.Data, 0, 1)
	r.FillNormal(tail.Data, 0, 1)
	lin.Forward(full, true)
	allocs := testing.AllocsPerRun(20, func() {
		lin.Forward(full, true)
		lin.Forward(tail, true)
		lin.Forward(full, true)
	})
	if allocs > 0 {
		t.Fatalf("steady-state Linear.Forward at batches 32/4/32 allocates %.1f, want 0", allocs)
	}
}
