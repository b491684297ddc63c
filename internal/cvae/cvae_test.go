package cvae

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"fedguard/internal/dataset"
	"fedguard/internal/opt"
	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

func TestPaperConfigParameterCounts(t *testing.T) {
	r := rng.New(1)
	m := New(PaperConfig(), r)
	// Table III: encoder 318,000 + 8,020 + 8,020; decoder 12,400 + 318,394;
	// total 664,834.
	got := 0
	for _, p := range m.Params() {
		got += p.Value.Len()
	}
	if got != 664834 {
		t.Fatalf("paper CVAE has %d params, want 664834", got)
	}
	if got := len(m.DecoderParams()); got != 330794 {
		t.Fatalf("decoder payload %d params, want 330794", got)
	}
	if got := DecoderSize(PaperConfig()); got != 330794 {
		t.Fatalf("DecoderSize = %d, want 330794", got)
	}
}

func TestStepReducesLoss(t *testing.T) {
	r := rng.New(2)
	cfg := Config{Input: 784, Hidden: 64, Latent: 8, Classes: 10}
	m := New(cfg, r)
	d := dataset.Generate(64, dataset.DefaultGenOptions(), r)
	x, labels := d.FlatBatchInto(nil, nil, dataset.Range(64))
	optim := opt.NewAdam(m.Params(), 1e-3)
	first := m.Step(x, labels, optim, r)
	var last float64
	for i := 0; i < 40; i++ {
		last = m.Step(x, labels, optim, r)
	}
	if last >= first*0.8 {
		t.Fatalf("CVAE loss did not fall: %v -> %v", first, last)
	}
}

// TestStepSameAtAnyHeldSlots: a step's products (≥ 6.5 M MACs at a batch
// of 32) split into as many chunks as there are free compute slots, and
// the split never shows — three steps with 0, 1 and 2 of two slots held
// end on the same parameters, bit for bit.
func TestStepSameAtAnyHeldSlots(t *testing.T) {
	defer tensor.SetWorkers(tensor.Workers())
	tensor.SetWorkers(2)
	d := dataset.Generate(32, dataset.DefaultGenOptions(), rng.New(4))
	x, labels := d.FlatBatchInto(nil, nil, dataset.Range(32))
	steps := func(held int) []float32 {
		for range held {
			tensor.HoldSlot()
			defer tensor.ReleaseSlot()
		}
		r := rng.New(5)
		m := New(SmallConfig(), r)
		optim := opt.NewAdam(m.Params(), 1e-3)
		for range 3 {
			m.Step(x, labels, optim, r)
		}
		var params []float32
		for _, p := range m.Params() {
			params = append(params, p.Value.Data...)
		}
		return params
	}
	want := steps(0)
	for _, held := range []int{1, 2} {
		requireSameBits(t, fmt.Sprintf("params with %d of 2 slots held", held), steps(held), want)
	}
}

func TestTrainAndGenerateClassConditional(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a full CVAE; several seconds")
	}
	// The decisive property for FedGuard: after training, the decoder must
	// synthesize images that look like their conditioning class. We verify
	// with a nearest-class-mean check against real data.
	r := rng.New(3)
	cfg := SmallConfig()
	m := New(cfg, r)
	train := dataset.Generate(600, dataset.DefaultGenOptions(), r)
	tc := TrainConfig{Epochs: 25, BatchSize: 32, LR: 1e-3}
	lossV := m.Train(train, dataset.Range(train.Len()), tc, r)
	if math.IsNaN(lossV) {
		t.Fatal("CVAE training diverged to NaN")
	}

	// Class means of real data.
	means := make([][]float64, 10)
	counts := make([]int, 10)
	for i := 0; i < train.Len(); i++ {
		l := train.Labels[i]
		if means[l] == nil {
			means[l] = make([]float64, 784)
		}
		img := train.X[i*784 : (i+1)*784]
		for j, v := range img {
			means[l][j] += float64(v)
		}
		counts[l]++
	}
	for l := range means {
		for j := range means[l] {
			means[l][j] /= float64(counts[l])
		}
	}

	dec := DecoderFromCVAE(m)
	const perClass = 8
	correct := 0
	for class := 0; class < 10; class++ {
		z := tensor.New(perClass, cfg.Latent)
		r.FillNormal(z.Data, 0, 1)
		labels := make([]int, perClass)
		for i := range labels {
			labels[i] = class
		}
		imgs := dec.Generate(z, labels)
		for i := 0; i < perClass; i++ {
			img := imgs.Data[i*784 : (i+1)*784]
			best, bestD := -1, math.Inf(1)
			for l := 0; l < 10; l++ {
				var dd float64
				for j, v := range img {
					diff := float64(v) - means[l][j]
					dd += diff * diff
				}
				if dd < bestD {
					best, bestD = l, dd
				}
			}
			if best == class {
				correct++
			}
		}
	}
	frac := float64(correct) / (10 * perClass)
	if frac < 0.7 {
		t.Fatalf("only %v of generated digits match their conditioning class", frac)
	}
}

func TestGenerateShapesAndRange(t *testing.T) {
	r := rng.New(4)
	cfg := SmallConfig()
	m := New(cfg, r)
	dec := DecoderFromCVAE(m)
	z := tensor.New(5, cfg.Latent)
	r.FillNormal(z.Data, 0, 1)
	imgs := dec.Generate(z, []int{0, 1, 2, 3, 4})
	if imgs.Dim(0) != 5 || imgs.Dim(1) != 784 {
		t.Fatalf("Generate shape %v", imgs.Shape())
	}
	for _, v := range imgs.Data {
		if v < 0 || v > 1 {
			t.Fatalf("generated pixel %v outside [0,1]", v)
		}
	}
}

// copyBuiltGenerate is the reference a view decoder is held to: a
// decoder network with parameter tensors of its own, the payload copied
// into them with LoadParams, run on the same conditioned input, image
// lanes sliced out.
func copyBuiltGenerate(t *testing.T, cfg Config, payload []float32, z *tensor.Tensor, labels []int) []float32 {
	t.Helper()
	net := newDecoderNet(cfg, rng.New(0))
	if err := net.LoadParams(payload); err != nil {
		t.Fatal(err)
	}
	out := net.Forward(condConcat(nil, z, labels, cfg.Classes), false)
	var img []float32
	for i := 0; i < z.Dim(0); i++ {
		img = append(img, out.Data[i*cfg.cond():i*cfg.cond()+cfg.Input]...)
	}
	return img
}

func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: value %d is %v (bits %#x), want %v (bits %#x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func latentBatch(r *rng.RNG, cfg Config, b int) (*tensor.Tensor, []int) {
	z := tensor.New(b, cfg.Latent)
	r.FillNormal(z.Data, 0, 1)
	labels := make([]int, b)
	for i := range labels {
		labels[i] = r.Intn(cfg.Classes)
	}
	return z, labels
}

// TestDecoderRoundTripThroughPayload: a decoder stood up on an uploaded
// payload is a view of it — it generates the bits of a copy-built
// decoder at the batch sizes the server runs (one sample, a stream
// block of six, seven, the 100-row audit set) on one decoder instance,
// and never writes the payload.
func TestDecoderRoundTripThroughPayload(t *testing.T) {
	r := rng.New(5)
	cfg := SmallConfig()
	payload := New(cfg, r).DecoderParams()
	before := fnv64a(payload)
	dec, err := NewDecoder(cfg, payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{1, 6, 7, 100, 6} {
		z, labels := latentBatch(r, cfg, b)
		got := dec.Generate(z, labels)
		if got.Dim(0) != b || got.Dim(1) != cfg.Input {
			t.Fatalf("batch %d: Generate shape %v", b, got.Shape())
		}
		requireSameBits(t, fmt.Sprintf("batch %d", b), got.Data, copyBuiltGenerate(t, cfg, payload, z, labels))
	}
	if after := fnv64a(payload); after != before {
		t.Fatalf("Generate wrote the payload: FNV-64a %#016x, was %#016x", after, before)
	}
}

// TestDecodersShareOnePayload runs two decoders over the same payload
// at once, as the barrier synthesis and a stream audit may: both only
// read it, so each produces its serial result, and the race detector
// (make race) has nothing to report.
func TestDecodersShareOnePayload(t *testing.T) {
	r := rng.New(6)
	cfg := SmallConfig()
	payload := New(cfg, r).DecoderParams()
	type job struct {
		z      *tensor.Tensor
		labels []int
		want   []float32
	}
	jobs := make([]job, 2)
	for i := range jobs {
		z, labels := latentBatch(r, cfg, 6+i)
		jobs[i] = job{z, labels, copyBuiltGenerate(t, cfg, payload, z, labels)}
	}
	var wg sync.WaitGroup
	got := make([][]float32, len(jobs))
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dec, err := NewDecoder(cfg, payload)
			if err != nil {
				t.Error(err)
				return
			}
			for n := 0; n < 20; n++ {
				got[i] = append(got[i][:0], dec.Generate(j.z, j.labels).Data...)
			}
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		requireSameBits(t, fmt.Sprintf("decoder %d", i), got[i], j.want)
	}
}

// TestCVAEResetEqualsNew is the property a long-lived CVAE rests on: a
// model reset from a client's stream and then trained is the model New
// would have built from that stream and trained — the same decoder
// bits, the same loss, and the stream left where New and Train leave it
// — whatever the model trained on before, at whatever learning rate,
// and with its scratch last shrunk to a 4-row tail batch.
func TestCVAEResetEqualsNew(t *testing.T) {
	cfg := SmallConfig()
	ds := dataset.Generate(200, dataset.DefaultGenOptions(), rng.New(0x5e7))
	own := dataset.Range(200)[:68]    // two batches of 32 and a 4-row tail
	other := dataset.Range(200)[100:] // three batches of 32 and a 4-row tail
	tc := TrainConfig{Epochs: 2, BatchSize: 32, LR: 1e-3}

	r := rng.New(9)
	fresh := New(cfg, r)
	wantLoss := fresh.Train(ds, own, tc, r)
	want, wantState := fresh.DecoderParams(), r.State()

	reused := New(cfg, rng.New(77))
	prior := rng.New(78)
	reused.Train(ds, other, TrainConfig{Epochs: 1, BatchSize: 32, LR: 5e-3}, prior)
	if fnv64a(reused.DecoderParams()) == fnv64a(want) {
		t.Fatal("the prior training ended on the fresh model's decoder: the comparison below would be vacuous")
	}
	r = rng.New(9)
	reused.Reset(r)
	loss := reused.Train(ds, own, tc, r)
	requireSameBits(t, "decoder after Reset + Train", reused.DecoderParams(), want)
	if math.Float64bits(loss) != math.Float64bits(wantLoss) {
		t.Fatalf("loss after Reset + Train %v, New + Train %v", loss, wantLoss)
	}
	if r.State() != wantState {
		t.Fatalf("stream after Reset + Train at %+v, New + Train leaves it at %+v", r.State(), wantState)
	}
}

func TestNewDecoderRejectsBadPayload(t *testing.T) {
	if _, err := NewDecoder(SmallConfig(), make([]float32, 7)); err == nil {
		t.Fatal("NewDecoder accepted a short payload")
	}
}

func TestReconstructionBetterThanChance(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a full CVAE; several seconds")
	}
	r := rng.New(6)
	cfg := Config{Input: 784, Hidden: 96, Latent: 10, Classes: 10}
	m := New(cfg, r)
	train := dataset.Generate(300, dataset.DefaultGenOptions(), r)
	tc := TrainConfig{Epochs: 10, BatchSize: 32, LR: 2e-3}
	m.Train(train, dataset.Range(train.Len()), tc, r)

	x, labels := train.FlatBatchInto(nil, nil, dataset.Range(32))
	rec := reconstruct(m, x, labels)
	var mse, base float64
	for i, v := range rec.Data {
		d := float64(v) - float64(x.Data[i])
		mse += d * d
		b := 0.15 - float64(x.Data[i]) // constant-image baseline
		base += b * b
	}
	if mse >= base {
		t.Fatalf("reconstruction MSE %v not better than constant baseline %v", mse, base)
	}
}

// reconstruct runs a full encode-decode pass at the posterior mean (no
// sampling) and returns the reconstructed images (B, Input).
func reconstruct(m *CVAE, x *tensor.Tensor, labels []int) *tensor.Tensor {
	b := x.Dim(0)
	cfg := m.Cfg
	input := m.oneHotConcat(nil, x, labels)
	h := m.trunk.Forward(input, false)
	mu := m.muHead.Forward(h, false)
	out := m.dec.Forward(condConcat(nil, mu, labels, cfg.Classes), false)
	img := tensor.New(b, cfg.Input)
	for i := 0; i < b; i++ {
		copy(img.Data[i*cfg.Input:(i+1)*cfg.Input], out.Data[i*cfg.cond():i*cfg.cond()+cfg.Input])
	}
	return img
}

func TestVAELearnsToReconstruct(t *testing.T) {
	r := rng.New(7)
	// Structured data on a 2-D manifold embedded in 16 dims.
	const n, dim = 200, 16
	x := tensor.New(n, dim)
	for i := 0; i < n; i++ {
		a := float32(r.NormFloat64())
		b := float32(r.NormFloat64())
		for j := 0; j < dim; j++ {
			x.Data[i*dim+j] = a*float32(j%3) + b*float32((j+1)%2)
		}
	}
	v := NewVAE(dim, 32, 4, r)
	first := v.Fit(x, 1, 1e-3, 0.1, r)
	last := v.Fit(x, 40, 1e-3, 0.1, r)
	if last >= first {
		t.Fatalf("VAE loss did not fall: %v -> %v", first, last)
	}
	errs := v.ReconstructionError(x)
	if len(errs) != n {
		t.Fatalf("%d errors for %d rows", len(errs), n)
	}
}

func TestVAEFlagsOutliers(t *testing.T) {
	// Train on in-distribution vectors; far-out vectors must reconstruct
	// worse — the working principle of the Spectral defense.
	r := rng.New(8)
	const n, dim = 300, 12
	x := tensor.New(n, dim)
	for i := 0; i < n; i++ {
		a := float32(r.NormFloat64())
		for j := 0; j < dim; j++ {
			x.Data[i*dim+j] = a * float32(1+j%4)
		}
	}
	v := NewVAE(dim, 32, 3, r)
	v.Fit(x, 60, 2e-3, 0.05, r)

	inErr := v.ReconstructionError(x)
	out := tensor.New(10, dim)
	r.FillNormal(out.Data, 5, 3) // off-manifold
	outErr := v.ReconstructionError(out)

	var inMean, outMean float64
	for _, e := range inErr {
		inMean += e
	}
	inMean /= float64(len(inErr))
	for _, e := range outErr {
		outMean += e
	}
	outMean /= float64(len(outErr))
	if outMean < 2*inMean {
		t.Fatalf("outliers not separable: in %v vs out %v", inMean, outMean)
	}
}
