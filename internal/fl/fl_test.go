package fl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"fedguard/internal/attack"
	"fedguard/internal/classifier"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/rng"
	"fedguard/internal/telemetry"
	"fedguard/internal/tensor"
)

func tinyClientConfig() ClientConfig {
	return ClientConfig{
		Arch:       classifier.Tiny(),
		Train:      classifier.TrainConfig{Epochs: 1, BatchSize: 16, LR: 0.1, Momentum: 0.9},
		CVAE:       cvae.Config{Input: 784, Hidden: 16, Latent: 2, Classes: 10},
		CVAETrain:  cvae.TrainConfig{Epochs: 1, BatchSize: 16, LR: 1e-3},
		NumClasses: 10,
	}
}

func tinyFederationConfig() FederationConfig {
	return FederationConfig{
		NumClients: 6,
		PerRound:   4,
		Rounds:     2,
		Alpha:      10,
		ServerLR:   1,
		Client:     tinyClientConfig(),
		Seed:       42,
	}
}

func TestClientRunRoundProducesUpdate(t *testing.T) {
	r := rng.New(1)
	d := dataset.Generate(60, dataset.DefaultGenOptions(), r)
	cfg := tinyClientConfig()
	c := NewClient(3, d, dataset.Range(60), cfg, nil, r.Split())
	global := cfg.Arch(rng.New(7)).FlattenParams()
	u := c.RunRound(global, false)
	if u.ClientID != 3 {
		t.Fatalf("ClientID = %d", u.ClientID)
	}
	if u.NumSamples != 60 {
		t.Fatalf("NumSamples = %d", u.NumSamples)
	}
	if len(u.Weights) != len(global) {
		t.Fatalf("weights %d, want %d", len(u.Weights), len(global))
	}
	if u.Decoder != nil {
		t.Fatal("decoder attached without being requested")
	}
	// Training must move the weights.
	diff := 0
	for i := range global {
		if u.Weights[i] != global[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("local training did not change any weight")
	}
}

func TestClientDecoderCachedAcrossRounds(t *testing.T) {
	r := rng.New(2)
	d := dataset.Generate(40, dataset.DefaultGenOptions(), r)
	cfg := tinyClientConfig()
	c := NewClient(0, d, dataset.Range(40), cfg, nil, r.Split())
	global := cfg.Arch(rng.New(7)).FlattenParams()
	u1 := c.RunRound(global, true)
	u2 := c.RunRound(u1.Weights, true)
	if u1.Decoder == nil || u2.Decoder == nil {
		t.Fatal("decoder payload missing")
	}
	if &u1.Decoder[0] != &u2.Decoder[0] {
		t.Fatal("CVAE retrained despite static partition (paper footnote 5)")
	}
	if len(u1.Decoder) != cvae.DecoderSize(cfg.CVAE) {
		t.Fatalf("decoder payload %d, want %d", len(u1.Decoder), cvae.DecoderSize(cfg.CVAE))
	}
}

func TestClientMaliciousFlag(t *testing.T) {
	r := rng.New(3)
	d := dataset.Generate(20, dataset.DefaultGenOptions(), r)
	cfg := tinyClientConfig()
	// A nil attack is attack.None: the client is benign.
	benign := NewClient(0, d, dataset.Range(20), cfg, nil, r.Split())
	if _, ok := benign.att.(attack.None); !ok {
		t.Fatalf("a client built with no attack runs %q", benign.att.Name())
	}
	mal := NewClient(1, d, dataset.Range(20), cfg, attack.NewSignFlip(), r.Split())
	if mal.att.Name() != "sign-flip" {
		t.Fatalf("a sign-flip client runs %q", mal.att.Name())
	}
}

func TestClientModelAttackApplied(t *testing.T) {
	r := rng.New(4)
	d := dataset.Generate(20, dataset.DefaultGenOptions(), r)
	cfg := tinyClientConfig()
	c := NewClient(0, d, dataset.Range(20), cfg, attack.NewSameValue(), r.Split())
	global := cfg.Arch(rng.New(7)).FlattenParams()
	u := c.RunRound(global, false)
	for _, v := range u.Weights {
		if v != 1 {
			t.Fatal("same-value attack not applied to upload")
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := tinyFederationConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []func(*FederationConfig){
		func(c *FederationConfig) { c.NumClients = 0 },
		func(c *FederationConfig) { c.PerRound = 0 },
		func(c *FederationConfig) { c.PerRound = c.NumClients + 1 },
		func(c *FederationConfig) { c.Rounds = 0 },
		func(c *FederationConfig) { c.Alpha = 0 },
		func(c *FederationConfig) { c.ServerLR = 0 },
		func(c *FederationConfig) { c.ServerLR = 1.5 },
		func(c *FederationConfig) { c.MaliciousFraction = -0.1 },
		func(c *FederationConfig) { c.MaliciousFraction = 0.5 }, // nil Attack
		func(c *FederationConfig) { c.Client.Arch = nil },
	}
	for i, mutate := range cases {
		bad := tinyFederationConfig()
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
}

// fakeStrategy records what it sees and returns the global unchanged.
type fakeStrategy struct {
	rounds   int
	lastSeen int
	decoders bool
}

func (f *fakeStrategy) Name() string        { return "fake" }
func (f *fakeStrategy) NeedsDecoders() bool { return f.decoders }
func (f *fakeStrategy) Aggregate(ctx *RoundContext) ([]float32, error) {
	f.rounds++
	f.lastSeen = len(ctx.Updates)
	out := make([]float32, len(ctx.Global))
	copy(out, ctx.Global)
	return out, nil
}

func TestFederationRunsAllRounds(t *testing.T) {
	r := rng.New(5)
	train := dataset.Generate(120, dataset.DefaultGenOptions(), r)
	test := dataset.Generate(40, dataset.DefaultGenOptions(), r)
	cfg := tinyFederationConfig()
	fed, err := NewFederation(train, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := &fakeStrategy{}
	calls := 0
	h, err := fed.Run(s, func(RoundRecord) { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	if s.rounds != cfg.Rounds || len(h.Rounds) != cfg.Rounds || calls != cfg.Rounds {
		t.Fatalf("rounds: strategy %d, history %d, callbacks %d", s.rounds, len(h.Rounds), calls)
	}
	if s.lastSeen != cfg.PerRound {
		t.Fatalf("strategy saw %d updates, want %d", s.lastSeen, cfg.PerRound)
	}
	for _, rec := range h.Rounds {
		if rec.TestAccuracy < 0 || rec.TestAccuracy > 1 {
			t.Fatalf("accuracy %v out of range", rec.TestAccuracy)
		}
		if len(rec.Sampled) != cfg.PerRound {
			t.Fatalf("sampled %d clients", len(rec.Sampled))
		}
		if rec.UploadBytes <= 0 || rec.DownloadBytes <= 0 {
			t.Fatalf("byte accounting missing: %+v", rec)
		}
	}
}

// poolWidth sets the tensor pool's width — what a run's worker set, and
// so its client concurrency, is sized by — for the rest of the test.
func poolWidth(t *testing.T, n int) {
	prev := tensor.Workers()
	tensor.SetWorkers(n)
	t.Cleanup(func() { tensor.SetWorkers(prev) })
}

func TestFederationDeterministic(t *testing.T) {
	r := rng.New(6)
	train := dataset.Generate(120, dataset.DefaultGenOptions(), r)
	test := dataset.Generate(40, dataset.DefaultGenOptions(), r)
	cfg := tinyFederationConfig()
	poolWidth(t, 4) // exercise the pool: scheduling must not leak into results

	run := func() []float64 {
		fed, err := NewFederation(train, test, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, err := fed.Run(&fedAvgForTest{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return h.Accuracies()
	}
	a := run()
	b := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d accuracy differs across identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

// fedAvgForTest is a minimal in-package FedAvg (the real one lives in
// package aggregate, which would create an import cycle in tests).
type fedAvgForTest struct{}

func (fedAvgForTest) Name() string        { return "fedavg-test" }
func (fedAvgForTest) NeedsDecoders() bool { return false }
func (fedAvgForTest) Aggregate(ctx *RoundContext) ([]float32, error) {
	out := make([]float64, len(ctx.Updates[0].Weights))
	var total float64
	for _, u := range ctx.Updates {
		w := float64(u.NumSamples)
		total += w
		for i, v := range u.Weights {
			out[i] += w * float64(v)
		}
	}
	res := make([]float32, len(out))
	for i := range out {
		res[i] = float32(out[i] / total)
	}
	return res, nil
}

func TestFederationMaliciousPlacement(t *testing.T) {
	r := rng.New(7)
	train := dataset.Generate(120, dataset.DefaultGenOptions(), r)
	test := dataset.Generate(40, dataset.DefaultGenOptions(), r)
	cfg := tinyFederationConfig()
	cfg.NumClients = 10
	cfg.MaliciousFraction = 0.5
	cfg.Attack = attack.NewSignFlip()
	fed, err := NewFederation(train, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.MaliciousIDs) != 5 {
		t.Fatalf("%d malicious of 10 at fraction 0.5", len(fed.MaliciousIDs))
	}
	// Placement must be deterministic in the seed.
	fed2, _ := NewFederation(train, test, cfg)
	for id := range fed.MaliciousIDs {
		if !fed2.MaliciousIDs[id] {
			t.Fatal("malicious placement differs across identical configs")
		}
	}
}

func TestFederationServerLRDampens(t *testing.T) {
	r := rng.New(8)
	train := dataset.Generate(120, dataset.DefaultGenOptions(), r)
	test := dataset.Generate(40, dataset.DefaultGenOptions(), r)

	// A strategy that returns all-zeros: with lr=1 the global becomes 0;
	// with lr=0.5 it only moves halfway.
	zero := &zeroStrategy{}
	cfg := tinyFederationConfig()
	cfg.Rounds = 1
	fed, _ := NewFederation(train, test, cfg)
	if _, err := fed.Run(zero, nil); err != nil {
		t.Fatal(err)
	}
	full := zero.lastGlobalNorm

	cfg.ServerLR = 0.5
	fed, _ = NewFederation(train, test, cfg)
	zero2 := &zeroStrategy{}
	if _, err := fed.Run(zero2, nil); err != nil {
		t.Fatal(err)
	}
	if zero2.lastGlobalNorm != full {
		t.Fatal("initial global differs between runs with same seed")
	}
	_ = full
}

type zeroStrategy struct {
	lastGlobalNorm float64
}

func (z *zeroStrategy) Name() string        { return "zero" }
func (z *zeroStrategy) NeedsDecoders() bool { return false }
func (z *zeroStrategy) Aggregate(ctx *RoundContext) ([]float32, error) {
	var n float64
	for _, v := range ctx.Global {
		n += float64(v) * float64(v)
	}
	z.lastGlobalNorm = math.Sqrt(n)
	return make([]float32, len(ctx.Global)), nil
}

func TestFederationDecodersOnDemand(t *testing.T) {
	r := rng.New(9)
	train := dataset.Generate(120, dataset.DefaultGenOptions(), r)
	test := dataset.Generate(40, dataset.DefaultGenOptions(), r)
	cfg := tinyFederationConfig()
	cfg.Rounds = 1
	fed, _ := NewFederation(train, test, cfg)

	check := &decoderChecker{}
	if _, err := fed.Run(check, nil); err != nil {
		t.Fatal(err)
	}
	if check.sawDecoder {
		t.Fatal("decoders attached for a strategy that does not need them")
	}

	check = &decoderChecker{need: true}
	fed2, _ := NewFederation(train, test, cfg)
	if _, err := fed2.Run(check, nil); err != nil {
		t.Fatal(err)
	}
	if !check.sawDecoder {
		t.Fatal("decoders missing for a strategy that needs them")
	}
}

type decoderChecker struct {
	need       bool
	sawDecoder bool
}

func (d *decoderChecker) Name() string        { return "decoder-check" }
func (d *decoderChecker) NeedsDecoders() bool { return d.need }
func (d *decoderChecker) Aggregate(ctx *RoundContext) ([]float32, error) {
	for _, u := range ctx.Updates {
		if u.Decoder != nil {
			d.sawDecoder = true
		}
	}
	out := make([]float32, len(ctx.Global))
	copy(out, ctx.Global)
	return out, nil
}

// TestWireBytesApplyDecoderDedup pins the in-process wire accounting:
// uploads mirror the logical column, and a client's decoder is charged
// to WireDownloadBytes only on its first delivery (its content never
// changes across rounds, so the networked dedup would token it after
// that). Every later round must charge exactly the weights plus the
// decoders of newly sampled clients.
func TestWireBytesApplyDecoderDedup(t *testing.T) {
	r := rng.New(5)
	train := dataset.Generate(120, dataset.DefaultGenOptions(), r)
	test := dataset.Generate(40, dataset.DefaultGenOptions(), r)
	cfg := tinyFederationConfig()
	cfg.Rounds = 3
	fed, err := NewFederation(train, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := fed.Run(&decoderChecker{need: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	weightBytes := int64(len(h.FinalWeights)) * 4
	seen := map[int]bool{}
	for i, rec := range h.Rounds {
		if rec.WireUploadBytes != rec.UploadBytes {
			t.Fatalf("round %d: wire uploads %d != logical %d",
				i+1, rec.WireUploadBytes, rec.UploadBytes)
		}
		m := int64(len(rec.Sampled))
		// Per-update decoder size, recoverable because every update in a
		// round carries weights plus one identical-size decoder.
		decBytes := rec.DownloadBytes/m - weightBytes
		if decBytes <= 0 {
			t.Fatalf("round %d: no decoder traffic in logical downloads", i+1)
		}
		var newClients int64
		for _, id := range rec.Sampled {
			if !seen[id] {
				seen[id] = true
				newClients++
			}
		}
		want := m*weightBytes + newClients*decBytes
		if rec.WireDownloadBytes != want {
			t.Fatalf("round %d: wire downloads %d, want %d (%d new of %d sampled)",
				i+1, rec.WireDownloadBytes, want, newClients, m)
		}
	}
	if len(seen) == cfg.PerRound*cfg.Rounds {
		t.Fatal("no client was ever resampled; dedup path unexercised")
	}
}

func TestHistoryStats(t *testing.T) {
	h := &History{Strategy: "x"}
	for i, acc := range []float64{0.1, 0.2, 0.9, 0.9, 0.9} {
		h.Rounds = append(h.Rounds, RoundRecord{
			Round: i + 1, TestAccuracy: acc, Seconds: 2,
			UploadBytes: 100, DownloadBytes: 200,
			WireUploadBytes: int64(10 * (i + 1)), WireDownloadBytes: 40,
		})
	}
	mean, std := h.LastNStats(3)
	if math.Abs(mean-0.9) > 1e-12 || std > 1e-12 {
		t.Fatalf("LastNStats(3) = %v ± %v", mean, std)
	}
	mean, _ = h.LastNStats(100)
	if math.Abs(mean-0.6) > 1e-12 {
		t.Fatalf("LastNStats(all) mean = %v", mean)
	}
	if h.FinalAccuracy() != 0.9 {
		t.Fatalf("FinalAccuracy = %v", h.FinalAccuracy())
	}
	if h.MeanSeconds() != 2 {
		t.Fatalf("MeanSeconds = %v", h.MeanSeconds())
	}
	up, down := h.MeanBytes()
	if up != 100 || down != 200 {
		t.Fatalf("MeanBytes = %d, %d", up, down)
	}
	if up, down := h.MeanWireBytes(); up != 30 || down != 40 {
		t.Fatalf("MeanWireBytes = %d, %d", up, down)
	}
	empty := &History{}
	if empty.FinalAccuracy() != 0 || empty.MeanSeconds() != 0 {
		t.Fatal("empty history stats should be zero")
	}
	if m, s := empty.LastNStats(5); m != 0 || s != 0 {
		t.Fatal("empty history LastNStats should be zero")
	}
}

func TestFederationRecordsFinalWeights(t *testing.T) {
	r := rng.New(20)
	train := dataset.Generate(120, dataset.DefaultGenOptions(), r)
	test := dataset.Generate(40, dataset.DefaultGenOptions(), r)
	cfg := tinyFederationConfig()
	cfg.Rounds = 1
	fed, err := NewFederation(train, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := fed.Run(&fedAvgForTest{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Client.Arch(rng.New(1)).NumParams()
	if len(h.FinalWeights) != want {
		t.Fatalf("FinalWeights has %d params, want %d", len(h.FinalWeights), want)
	}
	var nonzero bool
	for _, v := range h.FinalWeights {
		if v != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("FinalWeights is all zeros")
	}
}

func TestClientReportsDecoderClasses(t *testing.T) {
	r := rng.New(21)
	d := dataset.Generate(60, dataset.DefaultGenOptions(), r)
	// Restrict the partition to samples of classes 3 and 4 only.
	var indices []int
	for i, l := range d.Labels {
		if l == 3 || l == 4 {
			indices = append(indices, i)
		}
	}
	cfg := tinyClientConfig()
	c := NewClient(0, d, indices, cfg, nil, r.Split())
	global := cfg.Arch(rng.New(7)).FlattenParams()
	u := c.RunRound(global, true)
	if len(u.DecoderClasses) != 2 || u.DecoderClasses[0] != 3 || u.DecoderClasses[1] != 4 {
		t.Fatalf("DecoderClasses = %v, want [3 4]", u.DecoderClasses)
	}
}

func TestClientLabelFlipChangesDecoderClassesView(t *testing.T) {
	r := rng.New(22)
	d := dataset.Generate(100, dataset.DefaultGenOptions(), r)
	// Keep only class-5 samples; a label-flip attacker trains its CVAE on
	// them relabelled as 7.
	var indices []int
	for i, l := range d.Labels {
		if l == 5 {
			indices = append(indices, i)
		}
	}
	cfg := tinyClientConfig()
	c := NewClient(0, d, indices, cfg, attack.NewLabelFlip(), r.Split())
	global := cfg.Arch(rng.New(7)).FlattenParams()
	u := c.RunRound(global, true)
	if len(u.DecoderClasses) != 1 || u.DecoderClasses[0] != 7 {
		t.Fatalf("DecoderClasses = %v, want [7] (flipped view)", u.DecoderClasses)
	}
}

func TestClientGlobalAwareAttack(t *testing.T) {
	r := rng.New(26)
	d := dataset.Generate(30, dataset.DefaultGenOptions(), r)
	cfg := tinyClientConfig()
	boost := attack.NewScaledBoost(5)
	c := NewClient(0, d, dataset.Range(30), cfg, boost, r.Split())
	global := cfg.Arch(rng.New(7)).FlattenParams()

	// The boosted update must equal global + 5*(trained - global); verify
	// by comparing against a benign client with the identical stream.
	benign := NewClient(0, d, dataset.Range(30), cfg, nil, rng.New(0))
	cBoost := NewClient(0, d, dataset.Range(30), cfg, boost, rng.New(0))
	ub := benign.RunRound(global, false)
	um := cBoost.RunRound(global, false)
	for i := range ub.Weights {
		want := global[i] + 5*(ub.Weights[i]-global[i])
		if diff := want - um.Weights[i]; diff > 1e-5 || diff < -1e-5 {
			t.Fatalf("boosted weight %d = %v, want %v", i, um.Weights[i], want)
		}
	}
	_ = c
}

func TestByteAccountingExact(t *testing.T) {
	r := rng.New(30)
	train := dataset.Generate(120, dataset.DefaultGenOptions(), r)
	test := dataset.Generate(30, dataset.DefaultGenOptions(), r)
	cfg := tinyFederationConfig()
	cfg.Rounds = 1
	fed, err := NewFederation(train, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	check := &decoderChecker{need: true}
	h, err := fed.Run(check, nil)
	if err != nil {
		t.Fatal(err)
	}
	nParams := cfg.Client.Arch(rng.New(1)).NumParams()
	decParams := cvae.DecoderSize(cfg.Client.CVAE)
	rec := h.Rounds[0]
	wantUp := int64(cfg.PerRound) * int64(nParams) * 4
	wantDown := int64(cfg.PerRound) * int64(nParams+decParams) * 4
	if rec.UploadBytes != wantUp {
		t.Fatalf("UploadBytes = %d, want %d", rec.UploadBytes, wantUp)
	}
	if rec.DownloadBytes != wantDown {
		t.Fatalf("DownloadBytes = %d, want %d", rec.DownloadBytes, wantDown)
	}
}

// excludingStrategy rejects the first update every round through
// ctx.Decide, scoring each update by its slot, and keeps what it decided
// for comparison with the record and the event log.
type excludingStrategy struct {
	decided [][]Decision
}

func (e *excludingStrategy) Name() string        { return "excluding" }
func (e *excludingStrategy) NeedsDecoders() bool { return false }
func (e *excludingStrategy) Aggregate(ctx *RoundContext) ([]float32, error) {
	scores := make([]float64, len(ctx.Updates))
	for i := range scores {
		scores[i] = float64(i)
	}
	if kept := ctx.Decide(0.5, scores, func(s float64) bool { return s >= 0.5 }); len(kept) != len(scores)-1 {
		return nil, fmt.Errorf("Decide kept %d of %d", len(kept), len(scores))
	}
	e.decided = append(e.decided, append([]Decision(nil), ctx.Decisions...))
	out := make([]float32, len(ctx.Global))
	copy(out, ctx.Global)
	return out, nil
}

func TestFederationEmitsTelemetry(t *testing.T) {
	r := rng.New(40)
	train := dataset.Generate(120, dataset.DefaultGenOptions(), r)
	test := dataset.Generate(40, dataset.DefaultGenOptions(), r)
	cfg := tinyFederationConfig()
	cfg.MaliciousFraction = 0.5
	cfg.Attack = attack.NewSignFlip()
	sink := &telemetry.CollectSink{}
	cfg.Telemetry = telemetry.New(sink)
	cfg.Telemetry.EnableTracing("sim")
	fed, err := NewFederation(train, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	strat := &excludingStrategy{}
	h, err := fed.Run(strat, nil)
	if err != nil {
		t.Fatal(err)
	}

	if got := len(sink.ByKind("RunStarted")); got != 1 {
		t.Fatalf("%d RunStarted events", got)
	}
	if got := len(sink.ByKind("RunCompleted")); got != 1 {
		t.Fatalf("%d RunCompleted events", got)
	}
	rounds := sink.ByKind("RoundCompleted")
	if len(rounds) != cfg.Rounds {
		t.Fatalf("%d RoundCompleted events for %d rounds", len(rounds), cfg.Rounds)
	}
	for i, e := range rounds {
		rc := e.(RoundRecord)
		rec := h.Rounds[i]
		if rc.Round != i+1 {
			t.Fatalf("event %d is round %d", i, rc.Round)
		}
		if !reflect.DeepEqual(rc, rec) {
			t.Fatalf("event %d disagrees with history: %+v vs %+v", i, rc, rec)
		}
		sum := rec.TrainSeconds + rec.AggregateSeconds + rec.EvalSeconds
		if rec.Seconds != sum {
			t.Fatalf("round %d Seconds %v != phase sum %v", rec.Round, rec.Seconds, sum)
		}
		if rec.TrainSeconds <= 0 || rec.EvalSeconds <= 0 {
			t.Fatalf("round %d missing phase timings: %+v", rec.Round, rec)
		}
	}

	// The record and the event must carry exactly what the strategy
	// decided — in update order, kept clients' scores included — plus the
	// ground truth it never saw, which must match the placement.
	var excluded, attacked int
	for i, e := range rounds {
		rc, rec := e.(RoundRecord), h.Rounds[i]
		if rc.Threshold != 0.5 || rec.Threshold != 0.5 {
			t.Fatalf("round %d threshold: event %v, record %v", i+1, rc.Threshold, rec.Threshold)
		}
		if !slices.Equal(rc.Decisions, rec.Decisions) || len(rec.Decisions) != len(strat.decided[i]) {
			t.Fatalf("round %d: event carries %+v, record %+v, strategy decided %+v", i+1, rc.Decisions, rec.Decisions, strat.decided[i])
		}
		malicious := 0
		for j, d := range rec.Decisions {
			want := strat.decided[i][j]
			if want.Malicious {
				t.Fatal("the strategy saw ground truth")
			}
			if want.Malicious = fed.MaliciousIDs[d.ClientID]; d != want || d.ClientID != rec.Sampled[j] || d.Kept != (j > 0) {
				t.Fatalf("round %d decision %d = %+v, want %+v", i+1, j, d, want)
			}
			if d.Malicious {
				malicious++
			}
		}
		if malicious != rec.MaliciousSampled || rec.Excluded() != 1 {
			t.Fatalf("round %d: %d malicious decisions for %d sampled, %d excluded", i+1, malicious, rec.MaliciousSampled, rec.Excluded())
		}
		excluded += rec.Excluded()
		attacked += malicious
	}
	if attacked == 0 {
		t.Fatal("no malicious client was ever sampled; the ground-truth check is vacuous")
	}
	// The log's exclusions are the history's: one not-kept decision per
	// excluded update, summed over the RoundCompleted events.
	logged := 0
	for _, e := range rounds {
		logged += e.(RoundRecord).Excluded()
	}
	if logged != excluded {
		t.Fatalf("log holds %d exclusions, history %d", logged, excluded)
	}

	// Span side: one round span per RoundCompleted event, one client.train
	// span per sampled client per round.
	spans := map[string]int{}
	for _, e := range sink.ByKind("Span") {
		spans[e.(telemetry.SpanEnded).Name]++
	}
	if spans["round"] != cfg.Rounds {
		t.Fatalf("round spans = %d, want %d", spans["round"], cfg.Rounds)
	}
	if got := spans["client.train"]; got != cfg.Rounds*cfg.PerRound {
		t.Fatalf("client.train spans = %d, want %d", got, cfg.Rounds*cfg.PerRound)
	}

	// On the JSONL wire the record is the RoundCompleted line, under the
	// keys fedtrace and the README's event table name.
	var buf bytes.Buffer
	js := telemetry.NewJSONLSink(&buf)
	js.Emit(h.Rounds[0])
	if err := js.Flush(); err != nil {
		t.Fatal(err)
	}
	var env struct {
		Event string                     `json:"event"`
		Data  map[string]json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range env.Data {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	want := []string{"aggregate_seconds", "decisions", "download_bytes", "eval_seconds", "malicious_sampled",
		"round", "sampled", "seconds", "test_accuracy", "threshold", "train_seconds", "upload_bytes",
		"wire_download_bytes", "wire_upload_bytes"}
	if env.Event != "RoundCompleted" || !slices.Equal(keys, want) {
		t.Fatalf("RoundCompleted line: event %q, keys %v, want %v", env.Event, keys, want)
	}
	d := h.Rounds[0].Decisions[0]
	if wantDecision := fmt.Sprintf(`"decisions":[{"client_id":%d,"score":%v,"kept":%v,"malicious":%v}`,
		d.ClientID, d.Score, d.Kept, d.Malicious); !strings.Contains(buf.String(), wantDecision) {
		t.Fatalf("decision keys changed: %s", buf.String())
	}
}

func TestFederationNilTelemetryUnchanged(t *testing.T) {
	r := rng.New(41)
	train := dataset.Generate(120, dataset.DefaultGenOptions(), r)
	test := dataset.Generate(40, dataset.DefaultGenOptions(), r)

	run := func(tel *telemetry.T) *History {
		cfg := tinyFederationConfig()
		cfg.Telemetry = tel
		fed, err := NewFederation(train, test, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, err := fed.Run(&fedAvgForTest{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	plain := run(nil)
	instrumented := run(telemetry.New(&telemetry.CollectSink{}))
	if len(plain.FinalWeights) != len(instrumented.FinalWeights) {
		t.Fatal("weight count diverged")
	}
	for i := range plain.FinalWeights {
		if plain.FinalWeights[i] != instrumented.FinalWeights[i] {
			t.Fatal("telemetry changed the training trajectory")
		}
	}
	for i := range plain.Rounds {
		if plain.Rounds[i].TestAccuracy != instrumented.Rounds[i].TestAccuracy {
			t.Fatal("telemetry changed per-round accuracy")
		}
	}
}

// failingStrategy averages like fedAvgForTest until its failRound, whose
// aggregation fails.
type failingStrategy struct {
	fedAvgForTest
	failRound int
}

func (f failingStrategy) Aggregate(ctx *RoundContext) ([]float32, error) {
	if ctx.Round == f.failRound {
		return nil, fmt.Errorf("round %d refused", ctx.Round)
	}
	return f.fedAvgForTest.Aggregate(ctx)
}

// lastEventSink is a CollectSink that also keeps the last event it saw.
type lastEventSink struct {
	telemetry.CollectSink
	mu   sync.Mutex
	last telemetry.Event
}

func (s *lastEventSink) Emit(e telemetry.Event) {
	s.CollectSink.Emit(e)
	s.mu.Lock()
	s.last = e
	s.mu.Unlock()
}

// TestFailedTracedRunExportsWholeTrees fails a traced run's aggregation
// in round 2: the run, both rounds and round 2's aggregation are still
// exported, so every client span of the failed round has its parent in
// the log and fedtrace counts no orphan.
func TestFailedTracedRunExportsWholeTrees(t *testing.T) {
	r := rng.New(43)
	train := dataset.Generate(120, dataset.DefaultGenOptions(), r)
	test := dataset.Generate(40, dataset.DefaultGenOptions(), r)
	cfg := tinyFederationConfig()
	sink := &lastEventSink{}
	cfg.Telemetry = telemetry.New(sink)
	cfg.Telemetry.EnableTracing("sim")
	fed, err := NewFederation(train, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := fed.Run(failingStrategy{failRound: 2}, nil)
	if err == nil || !strings.Contains(err.Error(), "round 2 refused") {
		t.Fatalf("run error = %v, want round 2's", err)
	}
	if len(h.Rounds) != 1 {
		t.Fatalf("history holds %d rounds, want 1", len(h.Rounds))
	}
	names := map[string]int{}
	ids := map[string]bool{}
	spans := sink.ByKind("Span")
	for _, e := range spans {
		sp := e.(telemetry.SpanEnded)
		names[sp.Name]++
		ids[sp.Span] = true
	}
	if names["run"] != 1 || names["round"] != 2 || names["server.aggregate"] != 2 ||
		names["client.round"] != 2*cfg.PerRound {
		t.Fatalf("exported spans %v, want 1 run, 2 rounds, 2 aggregations, %d client rounds", names, 2*cfg.PerRound)
	}
	for _, e := range spans {
		if sp := e.(telemetry.SpanEnded); sp.Parent != "" && !ids[sp.Parent] {
			t.Fatalf("%s span names parent %s, which was never exported", sp.Name, sp.Parent)
		}
	}
	// The log closes on the failure, not on the last span.
	done, ok := sink.last.(telemetry.RunCompleted)
	if !ok || done.Rounds != 1 || done.Error != err.Error() {
		t.Fatalf("log ends on %#v, want a RunCompleted of 1 round with error %q", sink.last, err)
	}
}
