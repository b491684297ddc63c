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
// warmed up, ConvBlock.Forward allocates nothing — no per-batch-item
// tensors, no dispatch closures (the kernel pool ships typed tasks), no
// escaping shape slices.
func TestConvForwardAllocsSteadyState(t *testing.T) {
	r := rng.New(0xa110c)
	conv := NewConvBlock(1, 32, 5, r)
	x := tensor.New(8, 1, 28, 28)
	r.FillNormal(x.Data, 0, 1)
	conv.Forward(x, true) // warm up scratch
	allocs := testing.AllocsPerRun(20, func() { conv.Forward(x, true) })
	if allocs > 0 {
		t.Fatalf("steady-state ConvBlock.Forward allocates %.1f/op, want 0", allocs)
	}
}

// TestConvBackwardAllocsSteadyState pins the same property for Backward,
// including the per-image dW accumulation (Bind views, no fresh tensors).
func TestConvBackwardAllocsSteadyState(t *testing.T) {
	r := rng.New(0xa110d)
	conv := NewConvBlock(1, 32, 5, r)
	x := tensor.New(8, 1, 28, 28)
	r.FillNormal(x.Data, 0, 1)
	y := conv.Forward(x, true)
	g := tensor.New(y.Shape()...)
	r.FillNormal(g.Data, 0, 1)
	conv.Backward(g) // warm up scratch
	allocs := testing.AllocsPerRun(20, func() { conv.Backward(g) })
	if allocs > 0 {
		t.Fatalf("steady-state ConvBlock.Backward allocates %.1f/op, want 0", allocs)
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

// evalStack is the small classifier's topology: two conv blocks and two
// dense layers.
func evalStack(r *rng.RNG) (*Sequential, *ConvBlock, *ConvBlock) {
	c1, c2 := NewConvBlock(1, 8, 5, r), NewConvBlock(8, 16, 5, r)
	return NewSequential(
		c1, c2,
		NewFlatten(), NewLinear(16*4*4, 64, r), NewReLU(), NewLinear(64, 10, r),
	), c1, c2
}

// TestTrainStepAllocsSteadyState pins the same property for a training
// step through the conv blocks — forward, the masked scatter and
// the per-image im2col of Backward — at a full batch and the epoch's
// 4-row tail.
func TestTrainStepAllocsSteadyState(t *testing.T) {
	r := rng.New(0xa1112)
	model, _, _ := evalStack(r)
	full, tail := tensor.New(32, 1, 28, 28), tensor.New(4, 1, 28, 28)
	r.FillNormal(full.Data, 0, 1)
	r.FillNormal(tail.Data, 0, 1)
	gFull, gTail := tensor.New(32, 10), tensor.New(4, 10)
	r.FillNormal(gFull.Data, 0, 1)
	r.FillNormal(gTail.Data, 0, 1)
	step := func() {
		model.Forward(full, true)
		model.Backward(gFull)
		model.Forward(tail, true)
		model.Backward(gTail)
	}
	step()
	if allocs := testing.AllocsPerRun(20, step); allocs > 0 {
		t.Fatalf("steady-state training at batches 32/4 allocates %.1f, want 0", allocs)
	}
}

// TestEvalForwardAllocsSteadyState pins that evaluation allocates
// nothing once the model has seen its largest slab — also when a
// parameter load and smaller slabs come in between, as in an audit
// scoring job.
func TestEvalForwardAllocsSteadyState(t *testing.T) {
	r := rng.New(0xa1110)
	model, _, _ := evalStack(r)
	params := model.FlattenParams()
	slab, tail := tensor.New(25, 1, 28, 28), tensor.New(7, 1, 28, 28)
	r.FillNormal(slab.Data, 0, 1)
	r.FillNormal(tail.Data, 0, 1)
	model.Forward(slab, false)
	allocs := testing.AllocsPerRun(20, func() {
		if err := model.LoadParams(params); err != nil {
			t.Fatal(err)
		}
		model.Forward(slab, false)
		model.Forward(tail, false)
		model.Forward(slab, false)
	})
	if allocs > 0 {
		t.Fatalf("steady-state evaluation at slabs 25/7/25 allocates %.1f, want 0", allocs)
	}
}

// TestEvalOnlyModelScratchFootprint pins what a model that has only ever
// evaluated holds per conv layer after a 100-row slab: one image's
// product, the pooled batch and the transposed filters — no im2col
// matrix (on the vector kernels not even one image's), no batch-sized
// product, no unpooled activation. At the parent the first layer alone
// held 100·576·(25+8+8) floats, 9.4 MB.
func TestEvalOnlyModelScratchFootprint(t *testing.T) {
	r := rng.New(0xa1111)
	model, c1, c2 := evalStack(r)
	const b = 100
	x := tensor.New(b, 1, 28, 28)
	r.FillNormal(x.Data, 0, 1)
	model.Forward(x, false)
	for _, tc := range []struct {
		c                *ConvBlock
		oHW, pooled, fan int
	}{{c1, 24 * 24, 12 * 12, 25}, {c2, 8 * 8, 4 * 4, 200}} {
		c := tc.c
		if got, want := cap(c.prod.Data), tc.oHW*c.OutC; got != want {
			t.Errorf("%s: product scratch holds %d floats, want one image's %d", c.Name(), got, want)
		}
		if got, want := cap(c.y.Data), b*c.OutC*tc.pooled; got != want {
			t.Errorf("%s: output scratch holds %d floats, want the pooled batch's %d", c.Name(), got, want)
		}
		if got, want := cap(c.wT.Data), tc.fan*c.OutC; got != want {
			t.Errorf("%s: transposed filters hold %d floats, want %d", c.Name(), got, want)
		}
		if tensor.HasVectorKernels() && c.cols != nil {
			t.Errorf("%s: an im2col scratch of %d floats was allocated on the vector kernels", c.Name(), cap(c.cols.Data))
		} else if c.cols != nil && cap(c.cols.Data) != tc.oHW*tc.fan {
			t.Errorf("%s: im2col scratch holds %d floats, want one image's %d", c.Name(), cap(c.cols.Data), tc.oHW*tc.fan)
		}
		if c.x != nil || c.dCols != nil || c.dx != nil {
			t.Errorf("%s: evaluation left backward state behind", c.Name())
		}
	}
	for _, c := range []*ConvBlock{c1, c2} {
		if c.argmax != nil || c.dConv != nil {
			t.Errorf("%s: evaluation left winners or a conv-output gradient behind", c.Name())
		}
	}
}
