package fednet

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
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

// runLoopbackErr is runLoopback for runs expected to fail: it returns
// the server's error instead of failing the test, and only waits for the
// clients (the server's teardown sends them Shutdown either way).
func runLoopbackErr(t *testing.T, cfg Config, strategy fl.Strategy, test *dataset.Dataset) (*fl.History, error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv, err := NewServer(cfg, test, strategy)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for id := 0; id < cfg.Experiment.NumClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return
			}
			defer conn.Close()
			ServeClientOpts(conn, id, ClientOptions{})
		}(id)
	}
	h, err := srv.Run(ln, nil)
	wg.Wait()
	return h, err
}

// inProcess runs cfg's experiment on fl.Federation with the attack
// instance the networked server would build for it.
func inProcess(t *testing.T, cfg Config, strategy fl.Strategy, test *dataset.Dataset) *fl.History {
	t.Helper()
	inCfg := cfg.Experiment
	inCfg.StreamAudit = cfg.StreamAudit
	att, err := attack.ByName(cfg.AttackName, attack.CollusionSeed(inCfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if tt, ok := att.(attack.AGRTailored); ok {
		tt.TailorTo(strategy.Name())
	}
	inCfg.Attack = att
	train := dataset.Generate(cfg.TrainSize, dataset.DefaultGenOptions(), rng.New(cfg.DataSeed))
	fed, err := fl.NewFederation(train, test, inCfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := fed.Run(strategy, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func expectSameRun(t *testing.T, netHist, inHist *fl.History) {
	t.Helper()
	if len(netHist.Rounds) != len(inHist.Rounds) {
		t.Fatalf("round counts differ: %d vs %d", len(netHist.Rounds), len(inHist.Rounds))
	}
	for i := range netHist.Rounds {
		n, p := netHist.Rounds[i], inHist.Rounds[i]
		if !reflect.DeepEqual(n.Sampled, p.Sampled) || n.MaliciousSampled != p.MaliciousSampled {
			t.Fatalf("round %d sampling: networked %v (%d malicious), in-process %v (%d)",
				i+1, n.Sampled, n.MaliciousSampled, p.Sampled, p.MaliciousSampled)
		}
		if n.TestAccuracy != p.TestAccuracy {
			t.Fatalf("round %d accuracy: networked %v, in-process %v", i+1, n.TestAccuracy, p.TestAccuracy)
		}
	}
	if !reflect.DeepEqual(netHist.FinalWeights, inHist.FinalWeights) {
		t.Fatal("final weights diverge")
	}
}

// TestLoopbackCohortAttackMatchesInProcess: colluding attacks over TCP
// are the same attack as in-process — networked malicious clients upload
// their drafts and the engine rewrites them jointly after the barrier —
// so the final weights are byte-equal, under a mean and under a
// selecting aggregator, with stream audit requested.
func TestLoopbackCohortAttackMatchesInProcess(t *testing.T) {
	test := dataset.Generate(40, dataset.DefaultGenOptions(), rng.New(5))
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
				netHist := runLoopback(t, cfg, newStrategy(), test)
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
	test := dataset.Generate(40, dataset.DefaultGenOptions(), rng.New(5))
	netHist := runLoopback(t, cfg, aggregate.NewFedAvg(), test)
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
	test := dataset.Generate(40, dataset.DefaultGenOptions(), rng.New(5))
	_, netErr := runLoopbackErr(t, cfg, shortStrategy{}, test)

	train := dataset.Generate(cfg.TrainSize, dataset.DefaultGenOptions(), rng.New(cfg.DataSeed))
	fed, err := fl.NewFederation(train, test, cfg.Experiment)
	if err != nil {
		t.Fatal(err)
	}
	_, inErr := fed.Run(shortStrategy{}, nil)

	if netErr == nil || inErr == nil {
		t.Fatalf("short aggregate accepted: networked %v, in-process %v", netErr, inErr)
	}
	if netErr.Error() != inErr.Error() || !strings.Contains(netErr.Error(), "parameters") {
		t.Fatalf("errors differ: networked %q, in-process %q", netErr, inErr)
	}
}
