//go:build !race

// Allocation-regression pins for the synthesis and training hot paths.
// Behind !race because the race detector instruments allocations and
// inflates counts.

package cvae

import (
	"runtime"
	"testing"

	"fedguard/internal/dataset"
	"fedguard/internal/opt"
	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// TestDecoderGenerateAllocsSteadyState pins Decoder.Generate scratch
// reuse: once warmed up, the audit-set synthesis loop allocates nothing
// per call — decIn, the decoder net's layer scratch, and the output
// image buffer are all reused.
func TestDecoderGenerateAllocsSteadyState(t *testing.T) {
	r := rng.New(0xdeca)
	cfg := SmallConfig()
	model := New(cfg, r)
	dec := DecoderFromCVAE(model)
	z := tensor.New(16, cfg.Latent)
	r.FillNormal(z.Data, 0, 1)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = i % cfg.Classes
	}
	dec.Generate(z, labels) // warm up scratch
	allocs := testing.AllocsPerRun(20, func() { dec.Generate(z, labels) })
	if allocs > 0 {
		t.Fatalf("steady-state Decoder.Generate allocates %.1f/op, want 0", allocs)
	}
}

// TestStepAllocsSteadyState pins the training step's scratch reuse: once
// a full batch has grown the model's and the layers' buffers, a step
// allocates nothing — not for a full batch, and not for the smaller tail
// batch that follows it in every epoch and only shrinks the views.
func TestStepAllocsSteadyState(t *testing.T) {
	r := rng.New(0x57e9)
	cfg := SmallConfig()
	model := New(cfg, r)
	optim := opt.NewAdam(model.Params(), 1e-3)
	train := dataset.Generate(32, dataset.DefaultGenOptions(), r)
	full, fullLabels := train.FlatBatchInto(nil, nil, dataset.Range(32))
	tail, tailLabels := train.FlatBatchInto(nil, nil, dataset.Range(4))
	model.Step(full, fullLabels, optim, r) // warm up scratch
	allocs := testing.AllocsPerRun(5, func() {
		model.Step(full, fullLabels, optim, r)
		model.Step(tail, tailLabels, optim, r)
	})
	if allocs > 0 {
		t.Fatalf("steady-state CVAE.Step allocates %.1f per full+tail pair, want 0", allocs)
	}
}

// TestNewDecoderAllocatesHeadersOnly pins that standing a decoder up on
// a payload is free — the property that lets the server build one per
// client per round instead of caching them. At the default shape a
// decoder with tensors of its own is 1.69 MB (parameters and gradients
// for 207 K weights); a view allocates layer and tensor headers, which
// 64 KB bounds with two orders of magnitude to spare, and takes no
// generator to draw from.
func TestNewDecoderAllocatesHeadersOnly(t *testing.T) {
	cfg := SmallConfig()
	payload := make([]float32, DecoderSize(cfg))
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := NewDecoder(cfg, payload); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 64<<10 {
		t.Fatalf("NewDecoder allocates %d B, want ≤ 64 KB: is the payload being copied?", perOp)
	}
}

// TestTrainGathersIntoOneBuffer pins that a trained model's next Train
// reuses what the first one built: Adam's moments (3.3 MB at this
// shape), the batch buffer every batch is gathered into (a (32, 784)
// batch is 100 KB, and an epoch of 100 samples takes four) and the
// shuffled order. So a Train on a kept model allocates next to nothing
// however many epochs it runs; 16 KB bounds it.
func TestTrainGathersIntoOneBuffer(t *testing.T) {
	train := dataset.Generate(100, dataset.DefaultGenOptions(), rng.New(0x6a7))
	indices := dataset.Range(100)
	r := rng.New(0x7e)
	model := New(SmallConfig(), r)
	allocated := func(epochs int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		model.Train(train, indices, TrainConfig{Epochs: epochs, BatchSize: 32, LR: 1e-3}, r)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(1) // builds the Adam and the scratch, and starts the kernel pool
	for _, epochs := range []int{1, 3} {
		if got := allocated(epochs); got > 16<<10 {
			t.Fatalf("a %d-epoch Train on a trained model allocates %d B, want ≤ 16 KB: is the optimizer or a batch built per call?", epochs, got)
		}
	}
}
