package defense

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"fedguard/internal/aggregate"
	"fedguard/internal/classifier"
	"fedguard/internal/codec"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/fl"
	"fedguard/internal/rng"
	"fedguard/internal/telemetry"
	"fedguard/internal/tensor"
)

// buildFixture returns (benign weights, decoder payload, cvae config).
// The underlying classifier and CVAE are trained once and shared: every
// caller uses them read-only.
func buildFixture(t *testing.T, r *rng.RNG) ([]float32, []float32, cvae.Config) {
	t.Helper()
	fixtureOnce.Do(func() {
		fr := rng.New(0xf1c)
		train := dataset.Generate(300, dataset.DefaultGenOptions(), fr)

		model := classifier.Tiny()(fr)
		cfg := classifier.TrainConfig{Epochs: 5, BatchSize: 32, LR: 0.1, Momentum: 0.9}
		classifier.Train(model, train, dataset.Range(train.Len()), cfg, fr)

		fixtureCVAECfg = cvae.Config{Input: 784, Hidden: 128, Latent: 2, Classes: 10}
		cv := cvae.New(fixtureCVAECfg, fr)
		cv.Train(train, dataset.Range(train.Len()), cvae.TrainConfig{Epochs: 12, BatchSize: 32, LR: 2e-3}, fr)

		fixtureWeights = model.FlattenParams()
		fixtureDecoder = cv.DecoderParams()
	})
	return fixtureWeights, fixtureDecoder, fixtureCVAECfg
}

var (
	fixtureOnce    sync.Once
	fixtureWeights []float32
	fixtureDecoder []float32
	fixtureCVAECfg cvae.Config
)

func ctxWith(updates []fl.Update, seed uint64) *fl.RoundContext {
	return &fl.RoundContext{
		Round:   1,
		Updates: updates,
		RNG:     rng.New(seed),
		Report:  map[string]float64{},
	}
}

func TestFedGuardMetadata(t *testing.T) {
	g := NewFedGuard(classifier.Tiny(), cvae.SmallConfig())
	if g.Name() != "FedGuard" {
		t.Fatalf("Name = %q", g.Name())
	}
	if !g.NeedsDecoders() {
		t.Fatal("FedGuard must request decoders")
	}
}

func TestFedGuardSynthesize(t *testing.T) {
	r := rng.New(1)
	_, dec, ccfg := buildFixture(t, r)
	g := NewFedGuard(classifier.Tiny(), ccfg)
	g.Samples = 30
	updates := []fl.Update{
		{ClientID: 0, Weights: nil, NumSamples: 1, Decoder: dec},
		{ClientID: 1, Weights: nil, NumSamples: 1, Decoder: dec},
	}
	x, labels, err := g.Synthesize(ctxWith(updates, 2))
	if err != nil {
		t.Fatal(err)
	}
	if x.Dim(0) != 30 || x.Dim(1) != 1 || x.Dim(2) != 28 || x.Dim(3) != 28 {
		t.Fatalf("synthetic set shape %v", x.Shape())
	}
	if len(labels) != 30 {
		t.Fatalf("%d labels", len(labels))
	}
	for _, v := range x.Data {
		if v < 0 || v > 1 {
			t.Fatalf("synthetic pixel %v outside [0,1]", v)
		}
	}
	for _, l := range labels {
		if l < 0 || l >= 10 {
			t.Fatalf("label %d out of range", l)
		}
	}
}

func TestFedGuardExcludesGarbageUpdates(t *testing.T) {
	r := rng.New(3)
	benign, dec, ccfg := buildFixture(t, r)

	// Three benign updates and two same-value poison updates.
	sameValue := make([]float32, len(benign))
	for i := range sameValue {
		sameValue[i] = 1
	}
	updates := []fl.Update{
		{ClientID: 0, Weights: benign, NumSamples: 10, Decoder: dec},
		{ClientID: 1, Weights: benign, NumSamples: 10, Decoder: dec},
		{ClientID: 2, Weights: benign, NumSamples: 10, Decoder: dec},
		{ClientID: 3, Weights: sameValue, NumSamples: 10, Decoder: dec},
		{ClientID: 4, Weights: sameValue, NumSamples: 10, Decoder: dec},
	}
	g := NewFedGuard(classifier.Tiny(), ccfg)
	g.Samples = 60
	ctx := ctxWith(updates, 4)
	var sink telemetry.CollectSink
	tel := telemetry.New(&sink)
	tel.EnableTracing("server")
	ctx.Span = tel.StartRoot("server.aggregate")
	out, err := g.Aggregate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Span.End()
	// Aggregation of the surviving benign (identical) updates must equal
	// them exactly.
	for i := range out {
		if out[i] != benign[i] {
			t.Fatal("aggregate polluted by excluded updates")
		}
	}
	// The round's decision must cover every update in order, hold each
	// score to the mean it reports, and reject the poison clients.
	if len(ctx.Decisions) != len(updates) {
		t.Fatalf("%d decisions for %d updates", len(ctx.Decisions), len(updates))
	}
	var mean float64
	for i, d := range ctx.Decisions {
		if d.ClientID != updates[i].ClientID {
			t.Fatalf("decision %d is client %d, want %d", i, d.ClientID, updates[i].ClientID)
		}
		if d.Kept != (d.Score >= ctx.Threshold) {
			t.Fatalf("client %d scored %v against %v but kept = %v", d.ClientID, d.Score, ctx.Threshold, d.Kept)
		}
		if d.Malicious {
			t.Fatal("a strategy must not stamp ground truth")
		}
		mean += d.Score
	}
	if mean /= float64(len(updates)); mean != ctx.Threshold {
		t.Fatalf("threshold %v is not the mean score %v", ctx.Threshold, mean)
	}
	if ctx.Decisions[3].Kept || ctx.Decisions[4].Kept {
		t.Fatalf("poison clients 3 and 4 survived: %+v", ctx.Decisions)
	}
	// Synthesis and auditing must each have exported one phase span
	// under the round's aggregation span.
	parent := fmt.Sprintf("%016x", ctx.Span.Context().SpanID)
	phases := map[string]int{}
	for _, e := range sink.ByKind("Span") {
		if sp := e.(telemetry.SpanEnded); sp.Parent == parent {
			phases[sp.Name]++
		}
	}
	for _, phase := range []string{"server.synthesize", "server.audit"} {
		if phases[phase] != 1 {
			t.Fatalf("%d %s spans under server.aggregate: %v", phases[phase], phase, phases)
		}
	}
}

func TestFedGuardKeepsAllWhenEqual(t *testing.T) {
	r := rng.New(5)
	benign, dec, ccfg := buildFixture(t, r)
	updates := []fl.Update{
		{ClientID: 0, Weights: benign, NumSamples: 1, Decoder: dec},
		{ClientID: 1, Weights: benign, NumSamples: 1, Decoder: dec},
	}
	g := NewFedGuard(classifier.Tiny(), ccfg)
	ctx := ctxWith(updates, 6)
	if _, err := g.Aggregate(ctx); err != nil {
		t.Fatal(err)
	}
	if len(ctx.Decisions) != 2 || !ctx.Decisions[0].Kept || !ctx.Decisions[1].Kept {
		t.Fatalf("identical updates not all kept: %+v", ctx.Decisions)
	}
}

// TestFedGuardAllPassIsFedAvg: a round whose audit keeps every update
// aggregates exactly as FedAvg does. The updates share one classifier
// and one decoder, so they score alike, yet differ: each final-layer
// bias is shifted by its own small power of two and each update has its
// own sample count.
func TestFedGuardAllPassIsFedAvg(t *testing.T) {
	benign, dec, ccfg := buildFixture(t, rng.New(9))
	updates := make([]fl.Update, 5)
	for i := range updates {
		w := slices.Clone(benign)
		for j := len(w) - 10; j < len(w); j++ { // the last Linear's bias
			w[j] += float32(math.Ldexp(1, -12-i))
		}
		updates[i] = fl.Update{ClientID: i, Weights: w, NumSamples: 10 + 7*i, Decoder: dec}
	}
	g := NewFedGuard(classifier.Tiny(), ccfg)
	g.Samples = 40
	ctx := ctxWith(updates, 10)
	got, err := g.Aggregate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ctx.Decisions {
		if d.Score != ctx.Decisions[0].Score || !d.Kept {
			t.Fatalf("the audit told the updates apart: %+v", ctx.Decisions)
		}
	}
	want, err := aggregate.NewFedAvg().Aggregate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(got, want, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
		t.Fatal("an all-pass FedGuard round differs from FedAvg's aggregate")
	}
}

func TestFedGuardMissingDecoder(t *testing.T) {
	r := rng.New(7)
	benign, _, ccfg := buildFixture(t, r)
	g := NewFedGuard(classifier.Tiny(), ccfg)
	_, err := g.Aggregate(ctxWith([]fl.Update{
		{ClientID: 0, Weights: benign, NumSamples: 1},
	}, 8))
	if err == nil {
		t.Fatal("FedGuard accepted an update without decoder payload")
	}
}

func TestFedGuardEmptyRound(t *testing.T) {
	g := NewFedGuard(classifier.Tiny(), cvae.SmallConfig())
	if _, err := g.Aggregate(ctxWith(nil, 9)); err == nil {
		t.Fatal("FedGuard accepted an empty round")
	}
}

// TestFedGuardMaxDecodersSubset: every submitted decoder synthesizes
// its share of the set — sample i is update i mod m's decoder's image
// of (z_i, y_i) — so no round draws its set from a subset of its
// decoders.
func TestFedGuardMaxDecodersSubset(t *testing.T) {
	r := rng.New(10)
	_, dec, ccfg := buildFixture(t, r)
	g := NewFedGuard(classifier.Tiny(), ccfg)
	g.Samples = 20
	updates := make([]fl.Update, 3)
	for i := range updates {
		// Distinct decoders, so which one drew a sample shows in its pixels.
		d := append([]float32(nil), dec...)
		for j := range d {
			d[j] *= float32(i + 1)
		}
		updates[i] = fl.Update{ClientID: i, NumSamples: 1, Decoder: d}
	}
	x, labels, err := g.Synthesize(ctxWith(updates, 11))
	if err != nil {
		t.Fatal(err)
	}
	if x.Dim(0) != 20 {
		t.Fatalf("set shape %v, want 20 samples", x.Shape())
	}
	z, _ := g.drawPlan(rng.New(11), len(updates))
	lat, size := ccfg.Latent, ccfg.Input
	for i, y := range labels {
		d, err := cvae.NewDecoder(ccfg, updates[i%len(updates)].Decoder)
		if err != nil {
			t.Fatal(err)
		}
		img := d.Generate(tensor.FromSlice(z.Data[i*lat:(i+1)*lat], 1, lat), []int{y})
		if !slices.Equal(img.Data, x.Data[i*size:(i+1)*size]) {
			t.Fatalf("sample %d is not decoder %d's image", i, i%len(updates))
		}
	}
}

// TestFedGuardCustomClassProbs: the conditioning labels are uniform
// draws over the classes, taken from the round's RNG right after the
// latents — and 200 of them cover every class.
func TestFedGuardCustomClassProbs(t *testing.T) {
	r := rng.New(12)
	_, dec, ccfg := buildFixture(t, r)
	g := NewFedGuard(classifier.Tiny(), ccfg)
	g.Samples = 200
	updates := []fl.Update{{ClientID: 0, Weights: nil, NumSamples: 1, Decoder: dec}}
	_, labels, err := g.Synthesize(ctxWith(updates, 13))
	if err != nil {
		t.Fatal(err)
	}
	want := rng.New(13)
	want.FillNormal(make([]float32, g.Samples*ccfg.Latent), 0, 1)
	seen := make([]bool, ccfg.Classes)
	for i, l := range labels {
		if w := want.CategoricalUniform(ccfg.Classes); l != w {
			t.Fatalf("label %d is %d, want the uniform draw %d", i, l, w)
		}
		seen[l] = true
	}
	if slices.Contains(seen, false) {
		t.Fatalf("200 uniform labels missed a class: %v", seen)
	}
}

func TestFedGuardInnerOperatorSwap(t *testing.T) {
	r := rng.New(14)
	benign, dec, ccfg := buildFixture(t, r)
	g := NewFedGuard(classifier.Tiny(), ccfg)
	g.Inner = aggregate.CoordinateMedian
	updates := []fl.Update{
		{ClientID: 0, Weights: benign, NumSamples: 1, Decoder: dec},
		{ClientID: 1, Weights: benign, NumSamples: 1, Decoder: dec},
	}
	out, err := g.Aggregate(ctxWith(updates, 15))
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != benign[i] {
			t.Fatal("median inner operator of identical updates differs")
		}
	}
}

// auditDeterminismUpdates builds a round with distinct per-client
// weights (noised benign copies plus two poison vectors) so the audit
// accuracies genuinely differ across clients.
func auditDeterminismUpdates(t *testing.T) ([]fl.Update, cvae.Config) {
	t.Helper()
	benign, dec, ccfg := buildFixture(t, rng.New(40))
	updates := make([]fl.Update, 6)
	for i := range updates {
		w := append([]float32(nil), benign...)
		switch {
		case i >= 4: // poison
			for j := range w {
				w[j] = 1
			}
		case i > 0: // noised benign
			noise := make([]float32, len(w))
			rng.New(uint64(100+i)).FillNormal(noise, 0, 0.01)
			for j := range w {
				w[j] += noise[j]
			}
		}
		updates[i] = fl.Update{ClientID: i, Weights: w, NumSamples: 1, Decoder: dec}
	}
	return updates, ccfg
}

// TestFedGuardParallelAuditMatchesSerial pins the determinism contract
// of the fan-out audit: for the same round context seed, Aggregate must
// produce the reference's weights, report and exclusions at any pool
// width.
func TestFedGuardParallelAuditMatchesSerial(t *testing.T) {
	updates, ccfg := auditDeterminismUpdates(t)
	want := referenceAggregate(t, streamGuard(t, ccfg, 1), updates, 41)
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		requireSame(t, fmt.Sprintf("workers=%d", workers), barrierRun(t, streamGuard(t, ccfg, workers), updates, 41), want)
	}
}

// TestFedGuardParallelSynthesizeMatchesSerial pins the same contract for
// per-decoder synthesis fan-out: the reference's images and labels, in
// sample order, at any worker count, plain and class-routed.
func TestFedGuardParallelSynthesizeMatchesSerial(t *testing.T) {
	updates, ccfg := routedUpdates(t)
	for _, routed := range []bool{false, true} {
		// Four samples over six decoders leaves two blocks empty.
		for _, samples := range []int{50, 4} {
			guard := func(workers int) *FedGuard {
				g := streamGuard(t, ccfg, workers)
				g.Samples = samples
				g.UseDecoderClasses = routed
				return g
			}
			wantX, wantLabels := referenceSet(t, guard(1), updates, 42)
			for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
				x, labels, err := guard(workers).Synthesize(ctxWith(updates, 42))
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(labels, wantLabels) {
					t.Fatalf("routed=%v samples=%d workers=%d: labels differ", routed, samples, workers)
				}
				if !slices.Equal(x.Data, wantX.Data) {
					t.Fatalf("routed=%v samples=%d workers=%d: pixels differ", routed, samples, workers)
				}
			}
		}
	}
}

// TestFedGuardNeverWritesDecoderPayloads: the server's decoders are
// views of the uploaded payloads (cvae.NewDecoder), six of them over one
// shared vector here, so a barrier round and a streamed round — synthesis
// fanned out over three workers in both — must leave its bits alone and
// agree with the reference.
func TestFedGuardNeverWritesDecoderPayloads(t *testing.T) {
	updates, ccfg := auditDeterminismUpdates(t)
	payload := updates[0].Decoder
	before := codec.Hash(payload)

	want := referenceAggregate(t, streamGuard(t, ccfg, 3), updates, 45)
	requireSame(t, "barrier", barrierRun(t, streamGuard(t, ccfg, 3), updates, 45), want)
	requireSame(t, "stream", streamRun(t, streamGuard(t, ccfg, 3), updates, 45, []int{0, 1, 2, 3, 4, 5}, updates), want)
	if after := codec.Hash(payload); after != before {
		t.Fatalf("a round wrote the shared decoder payload: hash %016x, was %016x", after, before)
	}
}

// TestFedGuardSynthesizeChecksImageShapeFirst: a CVAE whose input is not
// a dataset.ImageH×ImageW image is a configuration error, reported before any
// decoder is looked at, any draw is made or the t×H×W set is allocated.
func TestFedGuardSynthesizeChecksImageShapeFirst(t *testing.T) {
	cfg := cvae.SmallConfig()
	cfg.Input = 100
	g := NewFedGuard(classifier.Tiny(), cfg)
	// The update has no decoder either; the shape error must win.
	_, _, err := g.Synthesize(ctxWith([]fl.Update{{ClientID: 0}}, 46))
	if err == nil || !strings.Contains(err.Error(), "does not match 28x28 images") {
		t.Fatalf("Synthesize with a 100-wide CVAE: %v", err)
	}
}

func TestSpectralRequiresPretrain(t *testing.T) {
	s := NewSpectral(classifier.Tiny())
	if _, err := s.Aggregate(ctxWith([]fl.Update{{ClientID: 0, Weights: []float32{1}}}, 16)); err == nil {
		t.Fatal("Spectral aggregated without pretraining")
	}
}

func TestSpectralExcludesOutliers(t *testing.T) {
	r := rng.New(17)
	aux := dataset.Generate(200, dataset.DefaultGenOptions(), r)
	s := NewSpectral(classifier.Tiny())
	pcfg := DefaultPretrainConfig(classifier.TrainConfig{Epochs: 1, BatchSize: 32, LR: 0.1, Momentum: 0.9})
	pcfg.Clients = 4
	pcfg.Rounds = 3
	if err := s.Pretrain(aux, pcfg); err != nil {
		t.Fatal(err)
	}

	// Benign updates: actual trained models. Poison: same-value vectors.
	train := dataset.Generate(150, dataset.DefaultGenOptions(), r)
	var updates []fl.Update
	for i := 0; i < 3; i++ {
		m := classifier.Tiny()(r)
		classifier.Train(m, train, dataset.Range(train.Len()),
			classifier.TrainConfig{Epochs: 1, BatchSize: 32, LR: 0.1, Momentum: 0.9}, r)
		updates = append(updates, fl.Update{ClientID: i, Weights: m.FlattenParams(), NumSamples: 10})
	}
	poison := make([]float32, len(updates[0].Weights))
	for i := range poison {
		poison[i] = 1
	}
	updates = append(updates, fl.Update{ClientID: 3, Weights: poison, NumSamples: 10})

	ctx := ctxWith(updates, 18)
	if _, err := s.Aggregate(ctx); err != nil {
		t.Fatal(err)
	}
	if len(ctx.Decisions) != len(updates) || ctx.Decisions[3].Kept {
		t.Fatalf("Spectral kept the same-value poison: %+v", ctx.Decisions)
	}
	for _, d := range ctx.Decisions {
		if d.Kept != (d.Score <= ctx.Threshold) {
			t.Fatalf("client %d erred %v against %v but kept = %v", d.ClientID, d.Score, ctx.Threshold, d.Kept)
		}
	}
}

func TestSpectralMetadata(t *testing.T) {
	s := NewSpectral(classifier.Tiny())
	if s.Name() != "Spectral" {
		t.Fatalf("Name = %q", s.Name())
	}
	if s.NeedsDecoders() {
		t.Fatal("Spectral must not request decoders")
	}
}

func TestProjectionDeterministicAndDiscriminative(t *testing.T) {
	p := newProjection(1000, 16, 42)
	q := newProjection(1000, 16, 42)
	w := make([]float32, 1000)
	rng.New(1).FillNormal(w, 0, 1)
	a := p.apply(w)
	b := q.apply(w)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("projection not deterministic in seed")
		}
	}
	// Different vectors must project differently.
	w2 := make([]float32, 1000)
	rng.New(2).FillNormal(w2, 0, 1)
	c := p.apply(w2)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("projection collapsed distinct inputs")
	}
}

// TestFedGuardDetectionStats: the per-client exclusion and participation
// counts are a function of the rounds' records alone — the strategy keeps
// none of its own.
func TestFedGuardDetectionStats(t *testing.T) {
	r := rng.New(21)
	benign, dec, ccfg := buildFixture(t, r)
	sameValue := make([]float32, len(benign))
	for i := range sameValue {
		sameValue[i] = 1
	}
	g := NewFedGuard(classifier.Tiny(), ccfg)
	g.Samples = 60
	updates := []fl.Update{
		{ClientID: 10, Weights: benign, NumSamples: 1, Decoder: dec},
		{ClientID: 11, Weights: benign, NumSamples: 1, Decoder: dec},
		{ClientID: 12, Weights: sameValue, NumSamples: 1, Decoder: dec},
	}
	var rounds []fl.RoundRecord
	for round := 0; round < 3; round++ {
		ctx := ctxWith(updates, uint64(30+round))
		if _, err := g.Aggregate(ctx); err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, fl.RoundRecord{Threshold: ctx.Threshold, Decisions: ctx.Decisions})
	}
	// A round that audited nothing (FedAvg's) counts for nobody.
	rounds = append(rounds, fl.RoundRecord{Sampled: []int{10, 12}})
	counts := func(rounds []fl.RoundRecord) (excluded, seen map[int]int) {
		excluded, seen = map[int]int{}, map[int]int{}
		for _, r := range rounds {
			for _, d := range r.Decisions {
				seen[d.ClientID]++
				if !d.Kept {
					excluded[d.ClientID]++
				}
			}
		}
		return excluded, seen
	}
	excluded, seen := counts(rounds)
	if seen[10] != 3 || seen[11] != 3 || seen[12] != 3 || len(seen) != 3 {
		t.Fatalf("participation counts wrong: %v", seen)
	}
	if excluded[12] != 3 {
		t.Fatalf("poison client excluded %d/3 times", excluded[12])
	}
	if excluded[10] != 0 || excluded[11] != 0 {
		t.Fatalf("benign clients excluded: %v", excluded)
	}
	if got := rounds[0].Excluded() + rounds[3].Excluded(); got != 1 {
		t.Fatalf("Excluded() over an audited and an unaudited round = %d, want 1", got)
	}
	// Only a prefix of the history: what a sampler sees mid-run.
	if e, s := counts(rounds[:1]); e[12] != 1 || s[10] != 1 {
		t.Fatalf("one-round prefix counts %v / %v", e, s)
	}
}

func TestFedGuardAssignSamplesRoundRobin(t *testing.T) {
	g := NewFedGuard(classifier.Tiny(), cvae.SmallConfig())
	assign := g.assignSamples([]int{0, 1, 2, 3, 4, 5}, 3, make([][]int, 3))
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		if assign[i] != w {
			t.Fatalf("assign = %v, want %v", assign, want)
		}
	}
}

func TestFedGuardAssignSamplesByClass(t *testing.T) {
	g := NewFedGuard(classifier.Tiny(), cvae.SmallConfig())
	g.UseDecoderClasses = true
	// Decoder 0 saw classes {0,1}; decoder 1 saw {2}; decoder 2 unknown.
	classes := [][]int{{0, 1}, {2}, nil}
	labels := []int{0, 2, 1, 2, 9}
	assign := g.assignSamples(labels, 3, classes)
	// Class 0 and 1 -> decoder 0 or 2 (both claim; 2 claims via nil).
	for i, y := range labels {
		d := assign[i]
		switch y {
		case 0, 1:
			if d != 0 && d != 2 {
				t.Fatalf("label %d routed to decoder %d", y, d)
			}
		case 2:
			if d != 1 && d != 2 {
				t.Fatalf("label 2 routed to decoder %d", d)
			}
		case 9:
			if d != 2 {
				t.Fatalf("label 9 (only nil-coverage decoder) routed to %d", d)
			}
		}
	}
}

func TestFedGuardAssignSamplesFallback(t *testing.T) {
	g := NewFedGuard(classifier.Tiny(), cvae.SmallConfig())
	g.UseDecoderClasses = true
	// No decoder claims class 5: fall back to round-robin.
	classes := [][]int{{0}, {1}}
	assign := g.assignSamples([]int{5, 5, 5}, 2, classes)
	if assign[0] != 0 || assign[1] != 1 || assign[2] != 0 {
		t.Fatalf("fallback assignment = %v", assign)
	}
}

func TestFedGuardSynthesizeWithDecoderClasses(t *testing.T) {
	r := rng.New(22)
	_, dec, ccfg := buildFixture(t, r)
	g := NewFedGuard(classifier.Tiny(), ccfg)
	g.Samples = 40
	g.UseDecoderClasses = true
	updates := []fl.Update{
		{ClientID: 0, NumSamples: 1, Decoder: dec, DecoderClasses: []int{0, 1, 2, 3, 4}},
		{ClientID: 1, NumSamples: 1, Decoder: dec, DecoderClasses: []int{5, 6, 7, 8, 9}},
	}
	x, labels, err := g.Synthesize(ctxWith(updates, 23))
	if err != nil {
		t.Fatal(err)
	}
	if x.Dim(0) != 40 || len(labels) != 40 {
		t.Fatalf("shape %v, %d labels", x.Shape(), len(labels))
	}
}
