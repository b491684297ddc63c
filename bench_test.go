package fedguard

// Benchmark harness: microbenchmarks of the substrate kernels, the
// server's defense and aggregation paths, and a client's round. The
// paper's tables and figures are not benchmarks here: cmd/fedbench runs
// them as sweeps on experiment.RunMatrix.
//
//	go test -run '^$' -bench=. -benchmem
//	go test -run '^$' -bench=BenchmarkClassifierTrainEpoch -benchtime=20x

import (
	"runtime/metrics"
	"sync"
	"testing"

	"fedguard/internal/aggregate"
	"fedguard/internal/classifier"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/defense"
	"fedguard/internal/fl"
	"fedguard/internal/nn"
	"fedguard/internal/opt"
	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// --- Substrate microbenchmarks. ----------------------------------------

func BenchmarkMatMul128(b *testing.B) {
	r := rng.New(1)
	x := tensor.New(128, 128)
	y := tensor.New(128, 128)
	dst := tensor.New(128, 128)
	r.FillNormal(x.Data, 0, 1)
	r.FillNormal(y.Data, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(dst, x, y)
	}
	flops := 2.0 * 128 * 128 * 128
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// BenchmarkMatMul runs the three kinds of dense product in a CVAE
// training step (SmallConfig, batch 32), each at its largest layer: the
// encoder's forward W@xᵀ (256×794)@(794×32), the encoder's weight
// gradient dW += gradᵀ@x (32×256)ᵀ@(32×794), and the decoder output
// layer's input gradient grad@W (32×794)@(794×256). Each reports MAC/ns.
func BenchmarkMatMul(b *testing.B) {
	for _, s := range []struct {
		name    string
		m, k, n int
		ta      bool // a is (k,m) and the product is MatMulTAAcc
	}{
		{"fwd-256x794x32", 256, 794, 32, false},
		{"dW-256x32x794", 256, 32, 794, true},
		{"dx-32x794x256", 32, 794, 256, false},
	} {
		b.Run(s.name, func(b *testing.B) {
			r := rng.New(1)
			x, y, dst := tensor.New(s.m, s.k), tensor.New(s.k, s.n), tensor.New(s.m, s.n)
			if s.ta {
				x = tensor.New(s.k, s.m)
			}
			r.FillNormal(x.Data, 0, 1)
			r.FillNormal(y.Data, 0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.ta {
					tensor.MatMulTAAcc(dst, x, y)
				} else {
					tensor.MatMul(dst, x, y)
				}
			}
			b.ReportMetric(float64(s.m*s.k*s.n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "MAC/ns")
		})
	}
}

// convShape is one convolution benchmark's layer and batch.
type convShape struct {
	name            string
	inC, outC, b, h int
}

// convShapes are the convolution benchmarks' layers: the paper's first
// layer at the historical batch of 8 (N = 32 output channels, the wide
// row-kernel path) and both layers of the `small` classifier every
// preset trains, at the training batch of 32 (N = 8 and 16, the
// register-tiled path; the second layer also returns an input gradient).
var convShapes = []convShape{
	{"paper-1to32-b8", 1, 32, 8, 28},
	{"small-1to8-b32", 1, 8, 32, 28},
	{"small-8to16-b32", 8, 16, 32, 12},
}

// convBlock builds shape s's Conv2D → ReLU → MaxPool2D(2,2) block, the
// unit a Sequential runs in both directions, and a batch for it.
func convBlock(s convShape, seed uint64) (*nn.Sequential, *tensor.Tensor, *rng.RNG) {
	r := rng.New(seed)
	conv := nn.NewConv2D(s.inC, s.outC, 5, 5, r)
	conv.InputGradOff = s.inC == 1
	x := tensor.New(s.b, s.inC, s.h, s.h)
	r.FillNormal(x.Data, 0, 1)
	return nn.NewSequential(conv, nn.NewReLU(), nn.NewMaxPool2D(2, 2)), x, r
}

// BenchmarkConvForward runs each shape's block as training does (the
// pooled output and the pool's winners, the input retained) and, as
// <shape>-eval, as evaluation does (the pooled output, nothing retained).
func BenchmarkConvForward(b *testing.B) {
	for _, s := range convShapes {
		for _, train := range []bool{true, false} {
			name := s.name
			if !train {
				name += "-eval"
			}
			b.Run(name, func(b *testing.B) {
				block, x, _ := convBlock(s, 2)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					block.Forward(x, train)
				}
			})
		}
	}
}

// BenchmarkConvBackward times each shape's block backward — the masked
// scatter through the pool and the ReLU, then the per-image im2col and
// gradient products — for a dense gradient w.r.t. the pooled output, as
// the layer after the block sends it; the scatter leaves the products
// the sparsity training gives them (about one live element in eight).
func BenchmarkConvBackward(b *testing.B) {
	for _, s := range convShapes {
		b.Run(s.name, func(b *testing.B) {
			block, x, r := convBlock(s, 3)
			g := tensor.New(block.Forward(x, true).Shape()...)
			r.FillNormal(g.Data, 0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				block.Backward(g)
			}
		})
	}
}

// trainEpochSamples is the size of the train-epoch benchmarks' dataset.
const trainEpochSamples = 256

// trainEpoch returns a function that runs one local epoch of the `small`
// classifier over trainEpochSamples synthetic images at the presets'
// batch size.
func trainEpoch() func() {
	r := rng.New(4)
	train := dataset.Generate(trainEpochSamples, dataset.DefaultGenOptions(), r)
	model := classifier.Small()(r)
	cfg := classifier.TrainConfig{Epochs: 1, BatchSize: 32, LR: 0.05, Momentum: 0.9}
	indices := dataset.Range(train.Len())
	return func() { classifier.Train(model, train, indices, cfg, r) }
}

func BenchmarkClassifierTrainEpoch(b *testing.B) {
	epoch := trainEpoch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch()
	}
	b.ReportMetric(trainEpochSamples*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkClassifierInfer is one audit scoring job: an update loaded
// into a long-lived small classifier and t = 100 rows scored in four
// 25-row slabs. Inference allocates nothing once the model's scratch has
// seen a slab.
func BenchmarkClassifierInfer(b *testing.B) {
	r := rng.New(6)
	set := dataset.Generate(100, dataset.DefaultGenOptions(), r)
	model := classifier.Small()(r)
	params := model.FlattenParams()
	const slab = 25
	var slabs []*tensor.Tensor
	for rows := dataset.Range(set.Len()); len(rows) > 0; rows = rows[slab:] {
		x, _ := set.Batch(rows[:slab])
		slabs = append(slabs, x)
	}
	infer := func() int {
		if err := model.LoadParams(params); err != nil {
			b.Fatal(err)
		}
		correct := 0
		for i, x := range slabs {
			correct += classifier.CountCorrectTensor(model, x, set.Labels[i*slab:(i+1)*slab])
		}
		return correct
	}
	infer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		infer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*set.Len())/1e3, "µs/row")
}

// BenchmarkClientRoundWarm is one client's round after its first: a bare
// fl.NewClient on the small classifier with a 100-sample partition, the
// default five local epochs. The client borrows the same long-lived
// worker every round, so a round allocates its update and its shuffled
// batches; a round that builds its model again allocates ≈ 8.9 MB. The
// B/op ceiling in BENCH_guard.json is what catches that.
func BenchmarkClientRoundWarm(b *testing.B) {
	r := rng.New(5)
	train := dataset.Generate(100, dataset.DefaultGenOptions(), r)
	cfg := fl.ClientConfig{Arch: classifier.Small(), Train: classifier.DefaultTrainConfig()}
	global := fl.InitialGlobalFrom(cfg.Arch, 5)
	c := fl.NewClient(0, train, dataset.Range(train.Len()), cfg, nil, r)
	c.RunRound(global, false) // builds the worker and grows its scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.RunRound(global, false)
	}
}

func BenchmarkCVAEStep(b *testing.B) {
	r := rng.New(5)
	cfg := cvae.SmallConfig()
	model := cvae.New(cfg, r)
	train := dataset.Generate(32, dataset.DefaultGenOptions(), r)
	x, labels := train.FlatBatchInto(nil, nil, dataset.Range(32))
	optim := opt.NewAdam(model.Params(), 1e-3)
	// One untimed step grows the layers' scratch, so allocs/op reads the
	// steady state at any -benchtime.
	model.Step(x, labels, optim, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Step(x, labels, optim, r)
	}
}

// BenchmarkCVAEStepContended is BenchmarkCVAEStep with every compute
// slot borrowed: two goroutines, each holding a worker of one width-2
// classifier.Set and training the CVAE it carries, step at once — two
// FedGuard clients' cold rounds at the benchmark's width. An op is one
// step of each. Holding both slots, each step runs its products whole on
// its own core; splitting them into slots somebody holds hands half of
// every product to a pool goroutine with no core to run on. That costs
// little time here (≈ 3 %: the two steppers and the pool goroutine share
// the cores fairly), but it wakes a parked goroutine for every split
// product, and sched/op counts those wake-ups: ≈ 0.1–0.4 a step pair
// with the products whole (the runtime samples one scheduling in eight;
// what is left is preemption), ≈ 2 with them split.
func BenchmarkCVAEStepContended(b *testing.B) {
	prev := tensor.Workers()
	tensor.SetWorkers(2)
	defer tensor.SetWorkers(prev)
	set := classifier.NewSet(classifier.Small())
	cfg := cvae.SmallConfig()
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	for g := range 2 {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			w := set.Get()
			defer set.Put(w)
			r := rng.New(uint64(5 + g))
			model := w.CVAE(cfg, r)
			train := dataset.Generate(32, dataset.DefaultGenOptions(), r)
			x, labels := train.FlatBatchInto(nil, nil, dataset.Range(32))
			optim := opt.NewAdam(model.Params(), 1e-3)
			model.Step(x, labels, optim, r) // grows the scratch: allocs/op reads the steady state
			ready.Done()
			<-start
			for i := 0; i < b.N; i++ {
				model.Step(x, labels, optim, r)
			}
		}()
	}
	ready.Wait()
	before := schedEvents()
	b.ReportAllocs()
	b.ResetTimer()
	close(start)
	done.Wait()
	b.StopTimer()
	b.ReportMetric(float64(schedEvents()-before)/float64(b.N), "sched/op")
}

// schedEvents is how many times the process's goroutines have gone from
// runnable to running: the runtime's scheduling-latency samples.
func schedEvents() uint64 {
	s := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(s)
	var n uint64
	for _, c := range s[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// BenchmarkSigmoidForward is the CVAE decoder's output layer on one
// training batch: the logistic function over 32 × 794 pre-activations,
// on the vector kernel where the CPU has one.
func BenchmarkSigmoidForward(b *testing.B) {
	x := tensor.New(32, cvae.SmallConfig().Input+cvae.SmallConfig().Classes)
	rng.New(14).FillNormal(x.Data, 0, 4)
	s := nn.NewSigmoid()
	s.Forward(x, true) // grows the layer's output
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Forward(x, true)
	}
}

// BenchmarkCVAETrainEpoch is one epoch of a default-preset client's
// lazy CVAE training: 100 samples at batch 32, so three full steps and
// the 4-row tail, with the loss evaluated because the only epoch is the
// last — the same call the ledger's cvae.train_epoch_s probe times. One
// untimed call builds the model's Adam and scratch, so B/op reads what a
// Train on a kept CVAE allocates; an Adam built per call is 3.3 MB more,
// and the B/op ceiling in BENCH_guard.json is what catches that.
func BenchmarkCVAETrainEpoch(b *testing.B) {
	r := rng.New(11)
	train := dataset.Generate(100, dataset.DefaultGenOptions(), r)
	model := cvae.New(cvae.SmallConfig(), r)
	cfg := cvae.TrainConfig{Epochs: 1, BatchSize: 32, LR: 1e-3}
	indices := dataset.Range(train.Len())
	model.Train(train, indices, cfg, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Train(train, indices, cfg, r)
	}
}

// BenchmarkAdamStep is one Adam update of the SmallConfig CVAE's 412 K
// parameters, alone: moments and gradients as a training step leaves
// them, no forward or backward pass.
func BenchmarkAdamStep(b *testing.B) {
	r := rng.New(12)
	params := cvae.New(cvae.SmallConfig(), r).Params()
	n := 0
	for _, p := range params {
		r.FillNormal(p.Grad.Data, 0, 0.01)
		n += p.Value.Len()
	}
	optim := opt.NewAdam(params, 1e-3)
	b.SetBytes(int64(n) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		optim.Step()
	}
}

func BenchmarkDecoderGenerate(b *testing.B) {
	r := rng.New(6)
	cfg := cvae.SmallConfig()
	dec := cvae.DecoderFromCVAE(cvae.New(cfg, r))
	z := tensor.New(100, cfg.Latent)
	r.FillNormal(z.Data, 0, 1)
	labels := make([]int, 100)
	for i := range labels {
		labels[i] = i % 10
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Generate(z, labels)
	}
}

// benchFedGuardRound is one default-preset round's server-side input:
// sixteen uploaded SmallConfig decoder payloads (no weights yet) and a
// FedGuard over classifier.Small with t = 100.
func benchFedGuardRound(r *rng.RNG) (*defense.FedGuard, []fl.Update) {
	cfg := cvae.SmallConfig()
	ups := make([]fl.Update, 16)
	for i := range ups {
		dec := make([]float32, cvae.DecoderSize(cfg))
		r.FillNormal(dec, 0, 0.05)
		ups[i] = fl.Update{ClientID: i, NumSamples: 100, Decoder: dec}
	}
	g := defense.NewFedGuard(classifier.Small(), cfg)
	g.Samples = 100
	return g, ups
}

// BenchmarkFedGuardSynthesize is the server's synthesis phase of one
// default-preset round (Alg. 1 lines 2–4): sixteen uploaded decoder
// payloads stood up and t = 100 samples spread across them, on a fresh
// RoundContext per op as every round gets. Its B/op is the tripwire for
// a decoder being copied again: a view costs nothing, a rebuilt decoder
// 1.69 MB.
func BenchmarkFedGuardSynthesize(b *testing.B) {
	g, ups := benchFedGuardRound(rng.New(13))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := &fl.RoundContext{Round: 1, Updates: ups, RNG: rng.New(uint64(i)), Report: map[string]float64{}}
		if _, _, err := g.Synthesize(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFedGuardAudit is one default-preset round of the whole barrier
// Aggregate (Alg. 1 lines 1–7): sixteen classifier.Small updates scored on
// t = 100 samples synthesized by their sixteen decoders, on a fresh
// RoundContext per op. It is the tripwire for the audit plan's cost
// model: sixteen synthesis jobs and sixteen full-set scoring jobs. A plan
// that scores per block, rebuilds a model or copies the set per update
// shows in ns/op or B/op.
func BenchmarkFedGuardAudit(b *testing.B) {
	r := rng.New(14)
	g, ups := benchFedGuardRound(r)
	for i := range ups {
		ups[i].Weights = classifier.Small()(r).FlattenParams()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := &fl.RoundContext{Round: 1, Updates: ups, RNG: rng.New(uint64(i)), Report: map[string]float64{}}
		if _, err := g.Aggregate(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func benchUpdates(n, dim int) []fl.Update {
	r := rng.New(7)
	ups := make([]fl.Update, n)
	for i := range ups {
		w := make([]float32, dim)
		r.FillNormal(w, 0, 0.1)
		ups[i] = fl.Update{ClientID: i, NumSamples: 100, Weights: w}
	}
	return ups
}

// modelDim is the real model size (classifier.Small's parameter count),
// so the aggregation benchmarks measure the exact vector length a
// default-preset round pushes through the strategy math.
func modelDim() int {
	return classifier.Small()(rng.New(9)).NumParams()
}

func BenchmarkAggregateFedAvg(b *testing.B) {
	ups := benchUpdates(50, modelDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aggregate.WeightedMean(ups); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKrumScores is the Krum hot loop alone: the m×m pairwise
// squared-distance matrix plus the per-update neighbour sums, at the
// paper's m=50 and the real model dimension.
func BenchmarkKrumScores(b *testing.B) {
	ups := benchUpdates(50, modelDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aggregate.KrumScores(ups, 24); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeoMed(b *testing.B) {
	ups := benchUpdates(50, modelDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aggregate.GeometricMedian(ups); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoordinateMedian(b *testing.B) {
	ups := benchUpdates(50, modelDim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aggregate.CoordinateMedian(ups); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerApply measures the server's ψ ← ψ + lr·(agg − ψ) update
// at the real model dimension — the per-round cost both servers pay after
// every aggregation.
func BenchmarkServerApply(b *testing.B) {
	dim := modelDim()
	r := rng.New(10)
	global := make([]float32, dim)
	agg := make([]float32, dim)
	next := make([]float32, dim)
	r.FillNormal(global, 0, 0.1)
	r.FillNormal(agg, 0, 0.1)
	b.ReportAllocs()
	b.SetBytes(int64(dim) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lr := float32(0.3)
		for j := range next {
			next[j] = global[j] + lr*(agg[j]-global[j])
		}
	}
	_ = next
}

func BenchmarkSynthDigitRender(b *testing.B) {
	r := rng.New(8)
	img := make([]float32, dataset.ImageH*dataset.ImageW)
	opts := dataset.DefaultGenOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dataset.RenderDigit(img, i%10, opts, r)
	}
}

// BenchmarkGenerate is the whole default-preset training set: what every
// networked client rendered and held before it kept only its partition.
func BenchmarkGenerate(b *testing.B) {
	opts := dataset.DefaultGenOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchData = dataset.Generate(3000, opts, rng.New(7))
	}
}

// BenchmarkGenerateSubset is what a networked client pays for its data
// now — the walk over the training set with one partition rendered — at
// the default preset (100 of 3 000) and the paper's (600 of 60 000).
func BenchmarkGenerateSubset(b *testing.B) {
	for _, tc := range []struct {
		name    string
		n, want int
	}{{"3000x100", 3000, 100}, {"60000x600", 60000, 600}} {
		b.Run(tc.name, func(b *testing.B) {
			opts := dataset.DefaultGenOptions()
			indices := rng.New(3).Sample(tc.n, tc.want)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := dataset.GenerateSubset(tc.n, opts, rng.New(7), indices)
				if err != nil {
					b.Fatal(err)
				}
				benchData = d
			}
		})
	}
}

// BenchmarkGenerateLabels is the server's share: the labels it
// partitions over.
func BenchmarkGenerateLabels(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchLabels = dataset.GenerateLabels(3000, rng.New(7))
	}
}

var (
	benchData   *dataset.Dataset
	benchLabels []int
)
