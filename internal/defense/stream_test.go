package defense

import (
	"runtime"
	"slices"
	"testing"

	"fedguard/internal/classifier"
	"fedguard/internal/cvae"
	"fedguard/internal/fl"
	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// poolWidth sets the tensor pool's width, which also bounds the audit's
// goroutines, until the test ends.
func poolWidth(t testing.TB, n int) {
	prev := tensor.Workers()
	tensor.SetWorkers(n)
	t.Cleanup(func() { tensor.SetWorkers(prev) })
}

func streamGuard(t testing.TB, ccfg cvae.Config, workers int) *FedGuard {
	poolWidth(t, workers)
	g := NewFedGuard(classifier.Tiny(), ccfg)
	g.Samples = 40
	return g
}

// outcome is what a round leaves behind: the aggregate and the whole
// decision — the threshold and every update's score and verdict, in slot
// order.
type outcome struct {
	weights   []float32
	threshold float64
	decisions []fl.Decision
}

// outcomeOf reads the decision a finished round left on its context.
func outcomeOf(ctx *fl.RoundContext, weights []float32) outcome {
	return outcome{weights, ctx.Threshold, ctx.Decisions}
}

// barrierRun is one round on the barrier schedule.
func barrierRun(t *testing.T, g *FedGuard, updates []fl.Update, seed uint64) outcome {
	t.Helper()
	ctx := ctxWith(updates, seed)
	out, err := g.Aggregate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return outcomeOf(ctx, out)
}

// streamRun is one round on the stream schedule: updates submitted in the
// given slot order, then finalized on delivered.
func streamRun(t *testing.T, g *FedGuard, updates []fl.Update, seed uint64, order []int, delivered []fl.Update) outcome {
	t.Helper()
	ctx := ctxWith(nil, seed)
	stream := g.BeginRound(ctx, len(updates))
	if stream == nil {
		t.Fatal("BeginRound refused a streamable round")
	}
	for _, slot := range order {
		stream.Submit(slot, updates[slot])
	}
	if busy, jobs := stream.Overlap(); jobs > 0 && busy <= 0 {
		t.Fatalf("%d jobs done but zero busy time", jobs)
	}
	ctx.Updates = delivered
	out, err := stream.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return outcomeOf(ctx, out)
}

func requireSame(t *testing.T, label string, got, want outcome) {
	t.Helper()
	if len(got.weights) != len(want.weights) {
		t.Fatalf("%s: %d weights, want %d", label, len(got.weights), len(want.weights))
	}
	for i := range got.weights {
		if got.weights[i] != want.weights[i] {
			t.Fatalf("%s: weight %d differs: %v vs %v", label, i, got.weights[i], want.weights[i])
		}
	}
	// Scores are bit-equal: Decision is comparable, so == on it is == on
	// the float.
	if got.threshold != want.threshold || !slices.Equal(got.decisions, want.decisions) {
		t.Fatalf("%s: decided %v at %v, want %v at %v", label, got.decisions, got.threshold, want.decisions, want.threshold)
	}
}

// routedUpdates is auditDeterminismUpdates with a decoder of its own per
// client (so that which decoder drew a sample shows in its pixels) and a
// claimed class list per decoder: overlapping windows, none at all on
// slot 2 (nil means trained on everything) and class 9 claimed only by it.
func routedUpdates(t *testing.T) ([]fl.Update, cvae.Config) {
	t.Helper()
	shared, ccfg := auditDeterminismUpdates(t)
	updates := append([]fl.Update(nil), shared...)
	for i := range updates {
		dec := append([]float32(nil), updates[i].Decoder...)
		noise := make([]float32, len(dec))
		rng.New(uint64(200+i)).FillNormal(noise, 0, 0.05)
		for j := range dec {
			dec[j] += noise[j]
		}
		updates[i].Decoder = dec
		if i != 2 {
			updates[i].DecoderClasses = []int{i, i + 1, i + 2, i + 3}
		}
	}
	return updates, ccfg
}

// TestAuditStreamMatchesBatch pins the plan's determinism contract: for
// any arrival order, worker count, set size and routing, the stream
// schedule and the barrier schedule both produce the reference's
// weights, threshold and per-update decisions, bit for bit. The
// maxdecoders cases draw fewer samples than there are decoders, so some
// decoders synthesize nothing and are only validated.
func TestAuditStreamMatchesBatch(t *testing.T) {
	updates, ccfg := routedUpdates(t)
	const seed = 41

	for _, tc := range []struct {
		name    string
		workers int
		samples int
		routed  bool
		order   []int
	}{
		{name: "serial-inorder", workers: 1, order: []int{0, 1, 2, 3, 4, 5}},
		{name: "serial-reversed", workers: 1, order: []int{5, 4, 3, 2, 1, 0}},
		{name: "parallel-shuffled", workers: 4, order: []int{3, 0, 5, 1, 4, 2}},
		{name: "gomaxprocs-shuffled", workers: runtime.GOMAXPROCS(0), order: []int{2, 5, 0, 4, 1, 3}},
		{name: "maxdecoders", workers: 3, samples: 4, order: []int{4, 1, 5, 0, 2, 3}},
		{name: "routed-inorder", workers: 1, routed: true, order: []int{0, 1, 2, 3, 4, 5}},
		{name: "routed-shuffled", workers: 4, routed: true, order: []int{3, 0, 5, 1, 4, 2}},
		{name: "routed-maxdecoders", workers: 2, samples: 4, routed: true, order: []int{4, 1, 5, 0, 2, 3}},
		{name: "routed-maxdecoders-reversed", workers: runtime.GOMAXPROCS(0), samples: 4, routed: true, order: []int{5, 4, 3, 2, 1, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			guard := func() *FedGuard {
				g := streamGuard(t, ccfg, tc.workers)
				if tc.samples > 0 {
					g.Samples = tc.samples
				}
				g.UseDecoderClasses = tc.routed
				return g
			}
			want := referenceAggregate(t, guard(), updates, seed)
			requireSame(t, "barrier", barrierRun(t, guard(), updates, seed), want)
			requireSame(t, "stream", streamRun(t, guard(), updates, seed, tc.order, updates), want)
		})
	}
}

// TestAuditStreamConcurrentSubmit drives Submit from one goroutine per
// client — the shape the networked server uses — and checks the result
// against the reference. Run under -race this also pins the plan's
// synchronization.
func TestAuditStreamConcurrentSubmit(t *testing.T) {
	updates, ccfg := auditDeterminismUpdates(t)
	const seed = 43
	want := referenceAggregate(t, streamGuard(t, ccfg, 2), updates, seed)

	g := streamGuard(t, ccfg, 2)
	ctx := ctxWith(nil, seed)
	stream := g.BeginRound(ctx, len(updates))
	submitted := make(chan struct{})
	for slot := range updates {
		go func(slot int) {
			stream.Submit(slot, updates[slot])
			submitted <- struct{}{}
		}(slot)
	}
	for range updates {
		<-submitted
	}
	ctx.Updates = updates
	got, err := stream.Finalize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	requireSame(t, "concurrent", outcomeOf(ctx, got), want)
}

// TestAuditStreamFallback covers the degraded paths: a round that loses
// a client mid-stream, whose final update order disagrees with the
// streamed slots, or whose stream was misused is the plan begun again on
// the actual updates — same bytes as never having streamed.
func TestAuditStreamFallback(t *testing.T) {
	updates, ccfg := auditDeterminismUpdates(t)
	const seed = 47

	t.Run("dropout", func(t *testing.T) {
		// Client in slot 2 never arrives; the round closes with 5 updates.
		survivors := append(append([]fl.Update(nil), updates[:2]...), updates[3:]...)
		want := referenceAggregate(t, streamGuard(t, ccfg, 2), survivors, seed)
		got := streamRun(t, streamGuard(t, ccfg, 2), updates, seed, []int{0, 1, 3, 4, 5}, survivors)
		requireSame(t, "dropout", got, want)
	})

	t.Run("slot-mismatch", func(t *testing.T) {
		reordered := append([]fl.Update(nil), updates...)
		reordered[0], reordered[1] = reordered[1], reordered[0]
		want := referenceAggregate(t, streamGuard(t, ccfg, 1), reordered, seed)
		got := streamRun(t, streamGuard(t, ccfg, 1), updates, seed, []int{0, 1, 2, 3, 4, 5}, reordered)
		requireSame(t, "slot-mismatch", got, want)
	})

	t.Run("submitted-twice", func(t *testing.T) {
		want := referenceAggregate(t, streamGuard(t, ccfg, 2), updates, seed)
		got := streamRun(t, streamGuard(t, ccfg, 2), updates, seed, []int{0, 1, 1, 2, 3, 4, 5}, updates)
		requireSame(t, "submitted-twice", got, want)
	})

	t.Run("abort-then-batch", func(t *testing.T) {
		want := referenceAggregate(t, streamGuard(t, ccfg, 2), updates, seed)
		g := streamGuard(t, ccfg, 2)
		ctx := ctxWith(nil, seed)
		stream := g.BeginRound(ctx, len(updates))
		stream.Submit(0, updates[0])
		stream.Abort()
		// The strategy must remain usable for the round's batch retry.
		ctx.Updates = updates
		got, err := g.Aggregate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		requireSame(t, "abort", outcomeOf(ctx, got), want)
	})
}

// TestAuditStreamUnsupported pins when BeginRound must refuse: empty
// rounds, and a CVAE config that is not a dataset.ImageH×ImageW image (which
// Aggregate reports as an error).
func TestAuditStreamUnsupported(t *testing.T) {
	_, _, ccfg := buildFixture(t, rng.New(40))
	for _, m := range []int{0, -1} {
		if s := streamGuard(t, ccfg, 1).BeginRound(ctxWith(nil, 1), m); s != nil {
			t.Fatalf("a round of %d updates must not stream", m)
		}
	}
	ccfg.Input = 100
	if s := streamGuard(t, ccfg, 1).BeginRound(ctxWith(nil, 1), 4); s != nil {
		t.Fatal("a mis-shaped CVAE config must not stream")
	}
}

// TestAuditStreamDoesNotAdvanceRNG pins the fallback precondition:
// BeginRound speculates on a clone, leaving ctx.RNG's stream untouched.
func TestAuditStreamDoesNotAdvanceRNG(t *testing.T) {
	updates, ccfg := auditDeterminismUpdates(t)
	g := streamGuard(t, ccfg, 1)
	ctx := ctxWith(nil, 53)
	ref := ctx.RNG.Clone()
	stream := g.BeginRound(ctx, len(updates))
	stream.Abort()
	for i := 0; i < 16; i++ {
		if ctx.RNG.Float64() != ref.Float64() {
			t.Fatalf("draw %d diverged: BeginRound advanced the round RNG", i)
		}
	}
}

// TestAuditErrorsAreDeterministic: the round's error is the lowest
// failing slot's decoder error, else the lowest failing slot's weights,
// whatever the arrival order and on either schedule.
func TestAuditErrorsAreDeterministic(t *testing.T) {
	good, ccfg := auditDeterminismUpdates(t)
	const seed = 59
	for _, tc := range []struct {
		name  string
		spoil func(updates []fl.Update)
	}{
		{name: "two bad decoders", spoil: func(u []fl.Update) {
			u[1].Decoder = u[1].Decoder[:10]
			u[4].Decoder = nil
		}},
		// Decoder d is slot d's, so the drawn order is the slot order.
		{name: "two bad decoders, drawn order", spoil: func(u []fl.Update) {
			u[5].Decoder = u[5].Decoder[:10]
			u[3].Decoder = u[3].Decoder[:11]
		}},
		{name: "two bad weight vectors", spoil: func(u []fl.Update) {
			u[2].Weights = u[2].Weights[:5]
			u[3].Weights = nil
		}},
		{name: "a decoder outranks weights", spoil: func(u []fl.Update) {
			u[0].Weights = nil
			u[5].Decoder = nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			updates := append([]fl.Update(nil), good...)
			tc.spoil(updates)
			guard := func() *FedGuard { return streamGuard(t, ccfg, 2) }
			_, err := guard().Aggregate(ctxWith(updates, seed))
			if err == nil {
				t.Fatal("Aggregate accepted the round")
			}
			for _, order := range [][]int{{0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}, {4, 2, 0, 3, 1, 5}} {
				ctx := ctxWith(nil, seed)
				stream := guard().BeginRound(ctx, len(updates))
				for _, slot := range order {
					stream.Submit(slot, updates[slot])
				}
				ctx.Updates = updates
				if _, serr := stream.Finalize(ctx); serr == nil || serr.Error() != err.Error() {
					t.Fatalf("arrival %v: %v, Aggregate said %v", order, serr, err)
				}
			}
		})
	}
}

// TestAuditModelsHoldNoBatchScratch pins what a FedGuard server keeps
// per audit model. The models only ever evaluate, so beyond their
// parameters each holds one image's conv products and a slab's pooled
// activations (≈ 0.2 MB for classifier.Small at a 25-row slab) — not
// the slab's im2col matrices, products and unpooled activations a
// training forward grows (≈ 4.5 MB). What a first round allocates over
// a later one is the models and that scratch.
func TestAuditModelsHoldNoBatchScratch(t *testing.T) {
	const workers = 2
	ccfg := cvae.Config{Input: 784, Hidden: 32, Latent: 2, Classes: 10}
	r := rng.New(70)
	updates := make([]fl.Update, 4)
	for i := range updates {
		dec := make([]float32, cvae.DecoderSize(ccfg))
		r.FillNormal(dec, 0, 0.05)
		updates[i] = fl.Update{ClientID: i, NumSamples: 1, Decoder: dec, Weights: classifier.Small()(r).FlattenParams()}
	}
	g := NewFedGuard(classifier.Small(), ccfg)
	g.Samples = 100
	poolWidth(t, workers)
	round := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := g.Aggregate(ctxWith(updates, 71)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := round()
	round()
	steady := round()
	model := 2 * 4 * uint64(len(updates[0].Weights)) // values and gradients
	if kept := first - steady; kept > workers*(model+512<<10) {
		t.Fatalf("the first round allocated %d B more than a later one: over %d B of parameters and 512 KiB of scratch for each of %d audit models",
			kept, model, workers)
	}
}
