package fednet

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fedguard/internal/aggregate"
	"fedguard/internal/attack"
	"fedguard/internal/dataset"
	"fedguard/internal/fl"
	"fedguard/internal/rng"
)

// These tests pin what the networked server gets from sharing the round
// engine with the in-process federation: the cohort-attack rewrite,
// custom samplers and the aggregate length check behave over loopback
// exactly as they do in-process.

// inProcess runs cfg's experiment on fl.Federation with the attack
// instance the networked server would build for it.
func inProcess(t *testing.T, cfg Config, strategy fl.Strategy, test *dataset.Dataset) *fl.History {
	t.Helper()
	h, err := runInProcess(cfg, strategy, test)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// runInProcess is inProcess for runs that may fail.
func runInProcess(cfg Config, strategy fl.Strategy, test *dataset.Dataset) (*fl.History, error) {
	inCfg := cfg.Experiment
	inCfg.StreamAudit = cfg.StreamAudit
	att, err := attack.ByName(cfg.AttackName, attack.CollusionSeed(inCfg.Seed))
	if err != nil {
		return nil, err
	}
	if tt, ok := att.(attack.AGRTailored); ok {
		tt.TailorTo(strategy.Name())
	}
	inCfg.Attack = att
	train := dataset.Generate(cfg.TrainSize, dataset.DefaultGenOptions(), rng.New(cfg.DataSeed))
	fed, err := fl.NewFederation(train, test, inCfg)
	if err != nil {
		return nil, err
	}
	return fed.Run(strategy, nil)
}

// comparableRecord strips the columns a transport or a restart
// legitimately changes: wall-clock timings, and the measured wire bytes
// (a resumed run pays re-registration traffic and re-sends reference
// state the crashed connections already carried). Everything
// deterministic — sampling, drops, exclusion reports, accuracies,
// logical byte columns — must match exactly.
func comparableRecord(r fl.RoundRecord) fl.RoundRecord {
	r.Seconds, r.TrainSeconds, r.AggregateSeconds, r.EvalSeconds = 0, 0, 0, 0
	r.WireUploadBytes, r.WireDownloadBytes = 0, 0
	return r
}

// expectSameRun holds a run to the one it must reproduce: every round's
// comparable record and the final weights.
func expectSameRun(t *testing.T, got, want *fl.History) {
	t.Helper()
	if len(got.Rounds) != len(want.Rounds) {
		t.Fatalf("%d rounds, want %d", len(got.Rounds), len(want.Rounds))
	}
	for i := range want.Rounds {
		w, g := comparableRecord(want.Rounds[i]), comparableRecord(got.Rounds[i])
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("round %d diverged:\nwant %+v\ngot  %+v", i+1, w, g)
		}
	}
	if !reflect.DeepEqual(got.FinalWeights, want.FinalWeights) {
		t.Fatal("final weights diverge")
	}
}

// TestLoopbackCohortAttackMatchesInProcess: colluding attacks over TCP
// are the same attack as in-process — networked malicious clients upload
// their drafts and the engine rewrites them jointly after the barrier —
// so the final weights are byte-equal, under a mean and under a
// selecting aggregator, with stream audit requested.
func TestLoopbackCohortAttackMatchesInProcess(t *testing.T) {
	test := testSet()
	for _, attackName := range []string{"alie", "min-max"} {
		for _, newStrategy := range []func() fl.Strategy{
			func() fl.Strategy { return aggregate.NewFedAvg() },
			func() fl.Strategy { return aggregate.NewKrum() },
		} {
			t.Run(fmt.Sprintf("%s/%s", attackName, newStrategy().Name()), func(t *testing.T) {
				cfg := testConfig()
				cfg.Experiment.NumClients = 7
				cfg.Experiment.PerRound = 6
				cfg.Experiment.MaliciousFraction = 0.3
				cfg.AttackName = attackName
				cfg.StreamAudit = true
				netHist := runLoopback(t, cfg, newStrategy(), test, ClientOptions{})
				inHist := inProcess(t, cfg, newStrategy(), test)
				expectSameRun(t, netHist, inHist)

				colluded := false
				for _, rec := range netHist.Rounds {
					colluded = colluded || rec.MaliciousSampled >= 2
				}
				if !colluded {
					t.Fatal("no round sampled two colluders: the joint rewrite never ran")
				}
			})
		}
	}
}

// rotatingSampler picks a deterministic window of clients per round
// without touching the RNG.
type rotatingSampler struct{}

func (rotatingSampler) SampleClients(history []fl.RoundRecord, n, m int, r *rng.RNG) []int {
	ids := make([]int, m)
	for i := range ids {
		ids[i] = (len(history) + 1 + i) % n
	}
	return ids
}

// TestLoopbackCustomSamplerMatchesInProcess: Experiment.Sampler decides
// who participates over TCP too.
func TestLoopbackCustomSamplerMatchesInProcess(t *testing.T) {
	cfg := testConfig()
	cfg.Experiment.Sampler = rotatingSampler{}
	test := testSet()
	netHist := runLoopback(t, cfg, aggregate.NewFedAvg(), test, ClientOptions{})
	if want := []int{1, 2, 3}; !reflect.DeepEqual(netHist.Rounds[0].Sampled, want) {
		t.Fatalf("round 1 sampled %v, want the sampler's %v", netHist.Rounds[0].Sampled, want)
	}
	expectSameRun(t, netHist, inProcess(t, cfg, aggregate.NewFedAvg(), test))
}

// shortStrategy returns one parameter too few.
type shortStrategy struct{}

func (shortStrategy) Name() string        { return "short" }
func (shortStrategy) NeedsDecoders() bool { return false }
func (shortStrategy) Aggregate(ctx *fl.RoundContext) ([]float32, error) {
	return make([]float32, len(ctx.Global)-1), nil
}

// TestStrategyLengthMismatchIsError: a wrong-length aggregate is the
// same error on both transports, never a panic inside the ψ-update.
func TestStrategyLengthMismatchIsError(t *testing.T) {
	cfg := testConfig()
	_, _, netErr := loopback{}.run(t, newServer(t, cfg, testSet(), shortStrategy{}))
	_, inErr := runInProcess(cfg, shortStrategy{}, testSet())
	if netErr == nil || inErr == nil {
		t.Fatalf("short aggregate accepted: networked %v, in-process %v", netErr, inErr)
	}
	if netErr.Error() != inErr.Error() || !strings.Contains(netErr.Error(), "parameters") {
		t.Fatalf("errors differ: networked %q, in-process %q", netErr, inErr)
	}
}
