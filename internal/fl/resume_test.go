package fl_test

// Crash-point resume tests for the in-process federation. These live in
// an external test package so they can drive the real persist sink —
// package fl itself must not import persist (persist imports fl).

import (
	"fmt"
	"reflect"
	"testing"

	"fedguard/internal/aggregate"
	"fedguard/internal/attack"
	"fedguard/internal/classifier"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/defense"
	"fedguard/internal/fl"
	"fedguard/internal/persist"
	"fedguard/internal/rng"
	"fedguard/internal/telemetry"
)

func resumeConfig() fl.FederationConfig {
	return fl.FederationConfig{
		NumClients:        6,
		PerRound:          4,
		Rounds:            3,
		Alpha:             10,
		ServerLR:          1,
		MaliciousFraction: 0.34,
		Attack:            attack.NewSignFlip(),
		Client: fl.ClientConfig{
			Arch:       classifier.Tiny(),
			Train:      classifier.TrainConfig{Epochs: 1, BatchSize: 16, LR: 0.1, Momentum: 0.9},
			CVAE:       cvae.Config{Input: 784, Hidden: 16, Latent: 2, Classes: 10},
			CVAETrain:  cvae.TrainConfig{Epochs: 1, BatchSize: 16, LR: 1e-3},
			NumClasses: 10,
		},
		TestSubset: 40,
		Seed:       42,
	}
}

func resumeData(t *testing.T) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	train := dataset.Generate(150, dataset.DefaultGenOptions(), rng.New(1234))
	test := dataset.Generate(40, dataset.DefaultGenOptions(), rng.New(5))
	return train, test
}

// mustRun builds a federation over cfg and runs strategy to completion.
func mustRun(t *testing.T, cfg fl.FederationConfig, train, test *dataset.Dataset, strategy fl.Strategy) *fl.History {
	t.Helper()
	fed, err := fl.NewFederation(train, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := fed.Run(strategy, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// deterministicFields strips the wall-clock columns from a record so
// interrupted and uninterrupted runs compare on what must match.
func deterministicFields(r fl.RoundRecord) fl.RoundRecord {
	r.Seconds, r.TrainSeconds, r.AggregateSeconds, r.EvalSeconds = 0, 0, 0, 0
	return r
}

// runKillResume simulates a crash after round k: a first federation runs
// exactly k rounds with checkpoints landing in dir, then a second, fresh
// federation (new strategy instance, as a restarted process would have)
// resumes from the persisted checkpoint and finishes the full schedule.
func runKillResume(t *testing.T, cfg fl.FederationConfig, train, test *dataset.Dataset,
	newStrategy func() fl.Strategy, k int) *fl.History {
	t.Helper()
	dir := t.TempDir()
	sink := func(ck *fl.Checkpoint) (string, int64, error) {
		return persist.SaveCheckpoint(dir, ck)
	}

	partialCfg := cfg
	partialCfg.Rounds = k
	partialCfg.CheckpointSink = sink
	fed, err := fl.NewFederation(train, test, partialCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Run(newStrategy(), nil); err != nil {
		t.Fatalf("partial run: %v", err)
	}

	ck, err := persist.LoadCheckpoint(dir)
	if err != nil {
		t.Fatalf("loading checkpoint after round %d: %v", k, err)
	}
	if ck.Round != k {
		t.Fatalf("checkpoint at round %d, want %d", ck.Round, k)
	}
	resumedCfg := cfg
	resumedCfg.CheckpointSink = sink
	fed2, err := fl.NewFederation(train, test, resumedCfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := fed2.Resume(newStrategy(), ck, nil)
	if err != nil {
		t.Fatalf("resume after round %d: %v", k, err)
	}
	return h
}

// expectIdentical asserts the headline guarantee: byte-identical final
// weights and identical deterministic round records (sampling, drops,
// exclusion reports, accuracies, byte columns).
func expectIdentical(t *testing.T, k int, baseline, resumed *fl.History) {
	t.Helper()
	if len(resumed.Rounds) != len(baseline.Rounds) {
		t.Fatalf("k=%d: %d rounds, want %d", k, len(resumed.Rounds), len(baseline.Rounds))
	}
	for i := range baseline.Rounds {
		want := deterministicFields(baseline.Rounds[i])
		got := deterministicFields(resumed.Rounds[i])
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("k=%d round %d diverged:\n got %+v\nwant %+v", k, i+1, got, want)
		}
	}
	if !reflect.DeepEqual(baseline.FinalWeights, resumed.FinalWeights) {
		t.Fatalf("k=%d: final weights are not byte-identical", k)
	}
}

// TestResumeMatchesUninterrupted kills a FedAvg run after every interior
// round and proves the resumed run lands on byte-identical final weights
// and an identical history.
func TestResumeMatchesUninterrupted(t *testing.T) {
	cfg := resumeConfig()
	train, test := resumeData(t)
	newStrategy := func() fl.Strategy { return aggregate.NewFedAvg() }
	baseline := mustRun(t, cfg, train, test, newStrategy())

	for k := 1; k < cfg.Rounds; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			resumed := runKillResume(t, cfg, train, test, newStrategy, k)
			expectIdentical(t, k, baseline, resumed)
		})
	}
}

// TestResumeFedGuardCrashPoints is the defense-strategy matrix: FedGuard
// killed after every interior round, each resumed run held to its
// uninterrupted one. Under sign-flip every round streams its audit
// (stream=true). Under ALIE, with half the clients colluding, every
// round samples a colluder, so the engine rewrites the cohort after the
// barrier and the audit runs there (stream=false). The client CVAE
// decoders and every RNG stream must survive the checkpoint for the
// exclusion sequence to reproduce.
func TestResumeFedGuardCrashPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("trains CVAEs across multiple full federations")
	}
	train, test := resumeData(t)
	for _, streaming := range []bool{false, true} {
		cfg := resumeConfig()
		if !streaming {
			cfg.Attack, cfg.MaliciousFraction = attack.NewALIE(), 0.5
		}
		newGuard := func() fl.Strategy { return resumeGuard(cfg) }
		baseline := mustRun(t, cfg, train, test, newGuard())
		for _, rec := range baseline.Rounds {
			if !streaming && rec.MaliciousSampled == 0 {
				t.Fatalf("round %d sampled no colluder, so it streamed", rec.Round)
			}
		}
		for k := 1; k < cfg.Rounds; k++ {
			t.Run(fmt.Sprintf("stream=%v/k=%d", streaming, k), func(t *testing.T) {
				resumed := runKillResume(t, cfg, train, test, newGuard, k)
				expectIdentical(t, k, baseline, resumed)
			})
		}
	}
}

// resumeGuard is the FedGuard the resume tests run: resumeConfig's CVAE
// and eight synthetic samples.
func resumeGuard(cfg fl.FederationConfig) fl.Strategy {
	g := defense.NewFedGuard(cfg.Client.Arch, cfg.Client.CVAE)
	g.Samples = 8
	return g
}

// TestResumeFromHashOnlyEntries: round files written before the pool
// named each decoder once also carry a hash-only dedup entry for every
// trained decoder. Such a file still loads, and the run resumed from it
// is the uninterrupted one, wire byte columns included.
func TestResumeFromHashOnlyEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("trains CVAEs across three federations")
	}
	cfg := resumeConfig()
	train, test := resumeData(t)
	baseline := mustRun(t, cfg, train, test, resumeGuard(cfg))

	dir := t.TempDir()
	partial := cfg
	partial.Rounds = 1
	partial.CheckpointSink = func(ck *fl.Checkpoint) (string, int64, error) { return persist.SaveCheckpoint(dir, ck) }
	mustRun(t, partial, train, test, resumeGuard(cfg))
	ck, err := persist.LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Decoders) != 0 {
		t.Fatalf("an in-process checkpoint carries %d dedup entries", len(ck.Decoders))
	}
	for _, st := range ck.Clients {
		if st.DecoderHash != 0 {
			ck.Decoders = append(ck.Decoders, fl.DecoderState{ID: st.ID, Hash: st.DecoderHash})
		}
	}
	legacy := t.TempDir()
	if _, _, err := persist.SaveCheckpoint(legacy, ck); err != nil {
		t.Fatal(err)
	}
	if ck, err = persist.LoadCheckpoint(legacy); err != nil {
		t.Fatal(err)
	}
	if len(ck.Decoders) == 0 {
		t.Fatal("round 1 trained no decoder")
	}
	fed, err := fl.NewFederation(train, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := fed.Resume(resumeGuard(cfg), ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	expectIdentical(t, 1, baseline, resumed)
}

// TestResumeAcrossSeeds re-proves the guarantee under different seeds —
// resumability must not be an artifact of one lucky sampling sequence.
func TestResumeAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("several full federations")
	}
	train, test := resumeData(t)
	for _, seed := range []uint64{7, 21} {
		cfg := resumeConfig()
		cfg.Seed = seed
		newStrategy := func() fl.Strategy { return aggregate.NewFedAvg() }
		baseline := mustRun(t, cfg, train, test, newStrategy())
		for k := 1; k < cfg.Rounds; k++ {
			t.Run(fmt.Sprintf("seed=%d/k=%d", seed, k), func(t *testing.T) {
				resumed := runKillResume(t, cfg, train, test, newStrategy, k)
				expectIdentical(t, k, baseline, resumed)
			})
		}
	}
}

// TestCheckpointCadence pins CheckpointEvery: with every=2 over 3 rounds
// only round 2 snapshots, and the sink never sees a round twice.
func TestCheckpointCadence(t *testing.T) {
	cfg := resumeConfig()
	cfg.CheckpointEvery = 2
	var rounds []int
	cfg.CheckpointSink = func(ck *fl.Checkpoint) (string, int64, error) {
		rounds = append(rounds, ck.Round)
		if len(ck.Rounds) != ck.Round {
			t.Errorf("snapshot at round %d carries %d records", ck.Round, len(ck.Rounds))
		}
		return "mem", 0, nil
	}
	train, test := resumeData(t)
	mustRun(t, cfg, train, test, aggregate.NewFedAvg())
	if !reflect.DeepEqual(rounds, []int{2}) {
		t.Fatalf("sink saw rounds %v, want [2]", rounds)
	}
}

// TestCheckpointSinkErrorAborts: a failing sink must stop the run — a
// federation that cannot honor its durability contract must not keep
// training past it.
func TestCheckpointSinkErrorAborts(t *testing.T) {
	cfg := resumeConfig()
	cfg.CheckpointSink = func(*fl.Checkpoint) (string, int64, error) {
		return "", 0, fmt.Errorf("disk on fire")
	}
	train, test := resumeData(t)
	fed, err := fl.NewFederation(train, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	h, err := fed.Run(aggregate.NewFedAvg(), func(fl.RoundRecord) { rounds++ })
	if err == nil {
		t.Fatal("sink error did not abort the run")
	}
	if rounds != 0 {
		t.Fatalf("onRound fired %d times after a failed round-1 checkpoint", rounds)
	}
	if h == nil || len(h.Rounds) != 1 {
		t.Fatalf("aborted run should surface the partial history: %+v", h)
	}
}

// TestCheckResumeRejectsMismatches covers the validation surface shared
// by the in-process and networked servers.
func TestCheckResumeRejectsMismatches(t *testing.T) {
	cfg := resumeConfig()
	good := &fl.Checkpoint{
		Round:    1,
		Seed:     cfg.Seed,
		Strategy: "FedAvg",
		Rounds:   []fl.RoundRecord{{Round: 1}},
	}
	if err := fl.CheckResume(cfg, "FedAvg", good); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	cases := map[string]*fl.Checkpoint{
		"nil":            nil,
		"wrong seed":     {Round: 1, Seed: cfg.Seed + 1, Strategy: "FedAvg", Rounds: []fl.RoundRecord{{Round: 1}}},
		"wrong strategy": {Round: 1, Seed: cfg.Seed, Strategy: "Krum", Rounds: []fl.RoundRecord{{Round: 1}}},
		"round zero":     {Round: 0, Seed: cfg.Seed, Strategy: "FedAvg"},
		"round beyond":   {Round: cfg.Rounds + 1, Seed: cfg.Seed, Strategy: "FedAvg", Rounds: make([]fl.RoundRecord, cfg.Rounds+1)},
		"record count":   {Round: 2, Seed: cfg.Seed, Strategy: "FedAvg", Rounds: []fl.RoundRecord{{Round: 1}}},
	}
	for name, ck := range cases {
		if err := fl.CheckResume(cfg, "FedAvg", ck); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Resume must apply the same gate.
	train, test := resumeData(t)
	fed, err := fl.NewFederation(train, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Resume(aggregate.NewFedAvg(), cases["wrong seed"], nil); err == nil {
		t.Fatal("Resume accepted a checkpoint from another seed")
	}
}

// TestResumeRejectsGlobalShapeMismatch: a checkpoint whose weight vector
// does not fit the model must be refused before any training happens.
func TestResumeRejectsGlobalShapeMismatch(t *testing.T) {
	cfg := resumeConfig()
	train, test := resumeData(t)
	fed, err := fl.NewFederation(train, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ck := &fl.Checkpoint{
		Round:    1,
		Seed:     cfg.Seed,
		Strategy: "FedAvg",
		Global:   []float32{1, 2, 3},
		Rounds:   []fl.RoundRecord{{Round: 1}},
	}
	if _, err := fed.Resume(aggregate.NewFedAvg(), ck, nil); err == nil {
		t.Fatal("mis-shaped global accepted")
	}
}

// TestCheckpointTelemetry asserts the observability contract: every
// snapshot emits one CheckpointWritten carrying its round and its cost,
// and a resumed run announces itself with RunResumed.
func TestCheckpointTelemetry(t *testing.T) {
	cfg := resumeConfig()
	events := &telemetry.CollectSink{}
	cfg.Telemetry = telemetry.New(events)
	dir := t.TempDir()
	cfg.CheckpointSink = func(ck *fl.Checkpoint) (string, int64, error) {
		return persist.SaveCheckpoint(dir, ck)
	}
	train, test := resumeData(t)
	mustRun(t, cfg, train, test, aggregate.NewFedAvg())

	written := events.ByKind("CheckpointWritten")
	if len(written) != cfg.Rounds {
		t.Fatalf("%d CheckpointWritten events for %d rounds", len(written), cfg.Rounds)
	}
	ev := written[0].(telemetry.CheckpointWritten)
	if ev.Round != 1 || ev.Bytes <= 0 || ev.Path == "" {
		t.Fatalf("malformed CheckpointWritten: %+v", ev)
	}
	for i, e := range written {
		if ev := e.(telemetry.CheckpointWritten); ev.Round != i+1 || ev.Seconds <= 0 {
			t.Fatalf("checkpoint event %d: round %d, %v s", i, ev.Round, ev.Seconds)
		}
	}
	if len(events.ByKind("RunResumed")) != 0 {
		t.Fatal("cold run emitted RunResumed")
	}

	ck, err := persist.LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	events2 := &telemetry.CollectSink{}
	cfg2 := cfg
	cfg2.Telemetry = telemetry.New(events2)
	cfg2.CheckpointSink = nil
	fed, err := fl.NewFederation(train, test, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	// The last snapshot covers the final round; resuming from it runs
	// zero further rounds but must still announce the resume point.
	if _, err := fed.Resume(aggregate.NewFedAvg(), ck, nil); err != nil {
		t.Fatal(err)
	}
	resumes := events2.ByKind("RunResumed")
	if len(resumes) != 1 {
		t.Fatalf("%d RunResumed events, want 1", len(resumes))
	}
	if ev := resumes[0].(telemetry.RunResumed); ev.Round != cfg.Rounds || ev.Strategy != "FedAvg" {
		t.Fatalf("RunResumed %+v, want round %d strategy FedAvg", ev, cfg.Rounds)
	}
}
