package fednet

import (
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fedguard/internal/aggregate"
	"fedguard/internal/faultnet"
	"fedguard/internal/fl"
	"fedguard/internal/telemetry"
)

// chaosConfig is testConfig scaled for fault-tolerance runs: 6 clients,
// 4 sampled per round, so any sample includes at least one healthy
// client even with three faulty peers in the federation.
func chaosConfig() Config {
	cfg := testConfig()
	cfg.Experiment.NumClients = 6
	cfg.Experiment.PerRound = 4
	cfg.Experiment.Rounds = 3
	cfg.MinClientsPerRound = 1
	cfg.IOTimeout = 1500 * time.Millisecond
	cfg.RoundTimeout = 6 * time.Second
	cfg.MaxRetries = 1
	return cfg
}

// chaosClient is the client of a fault-injected run: it dials through
// plan's wrapper for its id, and a client listed in redial reconnects
// once (with a clean connection) after its faulty session breaks,
// exercising the server's rejoin path. closeAll force-closes every
// connection it opened, aborting injected straggler delays; it is the
// run's then.
func chaosClient(plan *faultnet.Plan, redial map[int]bool, opts ClientOptions) (client func(addr string, id int) error, closeAll func(string)) {
	var mu sync.Mutex
	var conns []net.Conn
	serve := func(c net.Conn, id int) error {
		mu.Lock()
		conns = append(conns, c)
		mu.Unlock()
		defer c.Close()
		return ServeClientOpts(c, id, opts)
	}
	client = func(addr string, id int) error {
		c, err := plan.Dial("tcp", addr, id)
		if err != nil {
			return err
		}
		if err = serve(c, id); err == nil || !redial[id] {
			return err
		}
		clean, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		return serve(clean, id)
	}
	closeAll = func(string) {
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
	}
	return client, closeAll
}

// chaosPlan wires the adversarial cast of the issue: client 0 crashes
// mid-frame during its second sampled upload, client 1 stalls far past
// every timeout, client 2 corrupts every frame it sends. SkipWrites: 1
// lets each registration Hello through cleanly. (An update frame spans
// two underlying writes through the 64 KiB writer, hence
// DropAfterWrites: 2 = one full upload, then die.)
func chaosPlan(seed uint64) *faultnet.Plan {
	return &faultnet.Plan{
		Seed: seed,
		Peers: map[int]faultnet.PeerPlan{
			0: {SkipWrites: 1, DropAfterWrites: 2},
			1: {SkipWrites: 1, WriteDelay: 5 * time.Minute},
			2: {SkipWrites: 1, CorruptProb: 1},
		},
	}
}

// runChaos executes one fault-injected federation and returns its
// history and collected events.
func runChaos(t *testing.T, cfg Config, strategy fl.Strategy, plan *faultnet.Plan, opts ClientOptions) (*fl.History, *telemetry.CollectSink) {
	t.Helper()
	sink := &telemetry.CollectSink{}
	cfg.Telemetry = telemetry.New(sink)
	client, closeAll := chaosClient(plan, nil, opts)
	h, _, err := loopback{client: client, then: closeAll}.run(t, newServer(t, cfg, testSet(), strategy))
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	return h, sink
}

// TestChaosFederationSurvivesFaults is the issue's headline scenario: a
// federation with a mid-round crasher, a straggler, and a corrupting
// peer must still complete every configured round on the responsive
// quorum, for several fault seeds.
func TestChaosFederationSurvivesFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fault-injection run")
	}
	t.Parallel()
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			h, sink := runChaos(t, chaosConfig(), aggregate.NewFedAvg(), chaosPlan(seed), ClientOptions{})

			if got, want := len(h.Rounds), chaosConfig().Experiment.Rounds; got != want {
				t.Fatalf("completed %d rounds, want %d", got, want)
			}
			final := h.FinalAccuracy()
			if math.IsNaN(final) || math.IsInf(final, 0) || final < 0 || final > 1 {
				t.Fatalf("final accuracy %v", final)
			}
			if len(sink.ByKind("ClientDropped")) == 0 {
				t.Fatal("no ClientDropped events despite three faulty peers")
			}
			// 4 sampled of 6 with 3 faulty peers: every round must degrade.
			if got := len(sink.ByKind("RoundDegraded")); got != len(h.Rounds) {
				t.Fatalf("%d RoundDegraded events for %d rounds", got, len(h.Rounds))
			}
			for _, rec := range h.Rounds {
				responsive := len(rec.Sampled) - len(rec.Dropped)
				if responsive < 1 {
					t.Fatalf("round %d had no responsive clients: %+v", rec.Round, rec)
				}
				for _, id := range rec.Dropped {
					if id > 2 {
						t.Fatalf("round %d dropped healthy client %d", rec.Round, id)
					}
				}
			}
		})
	}
}

// TestChaosExclusionSequenceDeterministic runs the same adversarial plan
// twice with FedGuard: the same fault seed must reproduce the identical
// round-by-round drop sequence, the identical audit decisions and the
// identical final model. Dropped clients send every round's streamed
// audit back to the plan begun again on the delivered updates.
func TestChaosExclusionSequenceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fault-injection run with CVAE training")
	}
	t.Parallel()
	run := func() *fl.History {
		h, _ := runChaos(t, chaosConfig(), newTestGuard(), chaosPlan(7), ClientOptions{})
		return h
	}
	a, b := run(), run()
	if len(a.Rounds) != len(b.Rounds) {
		t.Fatalf("round counts differ: %d vs %d", len(a.Rounds), len(b.Rounds))
	}
	for i := range a.Rounds {
		ra, rb := a.Rounds[i], b.Rounds[i]
		if !reflect.DeepEqual(ra.Dropped, rb.Dropped) {
			t.Fatalf("round %d exclusion differs across runs: %v vs %v", i+1, ra.Dropped, rb.Dropped)
		}
		if len(ra.Decisions) == 0 || ra.Threshold != rb.Threshold || !reflect.DeepEqual(ra.Decisions, rb.Decisions) {
			t.Fatalf("round %d audit differs across runs: %v at %v vs %v at %v",
				i+1, ra.Decisions, ra.Threshold, rb.Decisions, rb.Threshold)
		}
	}
	if !reflect.DeepEqual(a.FinalWeights, b.FinalWeights) {
		t.Fatal("same fault seed produced different final weights")
	}
}

// TestZeroFaultPlanMatchesInProcess pins the degradation machinery's
// no-op case: a tolerant-mode networked run through zero-fault faultnet
// wrappers is still byte-identical to the in-process simulator.
func TestZeroFaultPlanMatchesInProcess(t *testing.T) {
	cfg := signFlipConfig()
	cfg.MinClientsPerRound = 1
	cfg.IOTimeout = 20 * time.Second
	cfg.RoundTimeout = time.Minute
	cfg.MaxRetries = 2

	netHist, _ := runChaos(t, cfg, aggregate.NewFedAvg(), &faultnet.Plan{Seed: 1}, ClientOptions{})
	for i, rec := range netHist.Rounds {
		if len(rec.Dropped) != 0 {
			t.Fatalf("zero-fault run dropped clients in round %d: %v", i+1, rec.Dropped)
		}
	}
	expectSameRun(t, netHist, signFlipRun.get(t))
}

// TestCrashedClientRejoins drives the reconnect path: a client that dies
// mid-upload redials, re-registers through the live listener, and serves
// rounds again with the current global model.
func TestCrashedClientRejoins(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fault-injection run")
	}
	cfg := testConfig()
	cfg.Experiment.NumClients = 3
	cfg.Experiment.PerRound = 3 // all sampled: the crash round is pinned
	cfg.Experiment.Rounds = 4
	cfg.MinClientsPerRound = 1
	cfg.IOTimeout = 2 * time.Second
	cfg.RoundTimeout = 8 * time.Second
	cfg.MaxRetries = 1

	sink := &telemetry.CollectSink{}
	cfg.Telemetry = telemetry.New(sink)

	// Client 0 completes its round-1 upload, crashes mid-frame in round
	// 2, then redials cleanly.
	plan := &faultnet.Plan{Seed: 11, Peers: map[int]faultnet.PeerPlan{
		0: {SkipWrites: 1, DropAfterWrites: 2},
	}}
	client, closeAll := chaosClient(plan, map[int]bool{0: true}, ClientOptions{})

	// Hold the round loop after the crash round until the rejoin lands,
	// so the remaining rounds deterministically include client 0 again.
	onRound := func(rec fl.RoundRecord) {
		if len(rec.Dropped) == 0 {
			return
		}
		deadline := time.Now().Add(10 * time.Second)
		for len(sink.ByKind("ClientRejoined")) == 0 {
			if time.Now().After(deadline) {
				t.Error("client 0 never rejoined after its crash")
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	fed := loopback{client: client, onRound: onRound, then: closeAll}
	h, _, err := fed.run(t, newServer(t, cfg, testSet(), aggregate.NewFedAvg()))
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	if len(h.Rounds) != cfg.Experiment.Rounds {
		t.Fatalf("completed %d rounds, want %d", len(h.Rounds), cfg.Experiment.Rounds)
	}

	crashRound := 0
	for _, rec := range h.Rounds {
		if len(rec.Dropped) > 0 {
			if crashRound != 0 {
				t.Fatalf("client dropped twice (rounds %d and %d) despite rejoining", crashRound, rec.Round)
			}
			if !reflect.DeepEqual(rec.Dropped, []int{0}) {
				t.Fatalf("round %d dropped %v, want [0]", rec.Round, rec.Dropped)
			}
			crashRound = rec.Round
		}
	}
	if crashRound == 0 {
		t.Fatal("the crasher was never dropped")
	}
	if crashRound == cfg.Experiment.Rounds {
		t.Fatal("crash fell in the last round; no post-rejoin round to verify")
	}
	rejoins := sink.ByKind("ClientRejoined")
	if len(rejoins) != 1 {
		t.Fatalf("%d ClientRejoined events, want 1", len(rejoins))
	}
	if ev := rejoins[0].(telemetry.ClientRejoined); ev.ClientID != 0 {
		t.Fatalf("rejoined client %d, want 0", ev.ClientID)
	}
	drops := sink.ByKind("ClientDropped")
	if len(drops) != 1 {
		t.Fatalf("%d ClientDropped events, want 1", len(drops))
	}
	if ev := drops[0].(telemetry.ClientDropped); ev.ClientID != 0 || ev.Round != crashRound {
		t.Fatalf("drop event %+v, want client 0 in round %d", ev, crashRound)
	}
}

// TestPartialRegistrationQuorum starts a federation whose third client
// never shows up: with RegisterTimeout and a quorum, the run must start
// anyway and drop the absent client in every round that samples it.
func TestPartialRegistrationQuorum(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out a registration timeout")
	}
	cfg := testConfig()
	cfg.Experiment.NumClients = 3
	cfg.Experiment.PerRound = 3
	cfg.Experiment.Rounds = 2
	cfg.MinClientsPerRound = 1
	cfg.IOTimeout = 5 * time.Second
	cfg.RoundTimeout = 20 * time.Second
	cfg.RegisterTimeout = 500 * time.Millisecond

	sink := &telemetry.CollectSink{}
	cfg.Telemetry = telemetry.New(sink)
	client, closeAll := chaosClient(&faultnet.Plan{Seed: 1}, nil, ClientOptions{})
	fed := loopback{clients: 2, client: client, then: closeAll}
	h, _, err := fed.run(t, newServer(t, cfg, testSet(), aggregate.NewFedAvg()))
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	if len(h.Rounds) != cfg.Experiment.Rounds {
		t.Fatalf("completed %d rounds, want %d", len(h.Rounds), cfg.Experiment.Rounds)
	}
	for _, rec := range h.Rounds {
		if !reflect.DeepEqual(rec.Dropped, []int{2}) {
			t.Fatalf("round %d dropped %v, want [2]", rec.Round, rec.Dropped)
		}
	}
	for _, ev := range sink.ByKind("ClientDropped") {
		if d := ev.(telemetry.ClientDropped); d.Reason != "disconnected" {
			t.Fatalf("drop reason %q, want %q", d.Reason, "disconnected")
		}
	}
}

// TestRefusedRegistrationIsAnEvent: a tolerant server turns away a
// registration claiming an ID outside the federation, says so in one
// RegistrationRefused event naming the handshake error, and runs on.
func TestRefusedRegistrationIsAnEvent(t *testing.T) {
	cfg := testConfig()
	cfg.MinClientsPerRound = 1
	sink := &telemetry.CollectSink{}
	cfg.Telemetry = telemetry.New(sink)
	// Client 0 first registers as 999 and is refused; only then does it
	// register as itself, so the refusal lands in the registration loop.
	client := func(addr string, id int) error {
		if id == 0 && RunClient(addr, 999, ClientOptions{}) == nil {
			return errors.New("client 999 was served")
		}
		return RunClient(addr, id, ClientOptions{})
	}
	h := loopback{client: client}.mustRun(t, newServer(t, cfg, testSet(), aggregate.NewFedAvg()))
	if len(h.Rounds) != cfg.Experiment.Rounds {
		t.Fatalf("completed %d rounds, want %d", len(h.Rounds), cfg.Experiment.Rounds)
	}
	refused := sink.ByKind("RegistrationRefused")
	if len(refused) != 1 {
		t.Fatalf("%d RegistrationRefused events, want 1", len(refused))
	}
	if ev := refused[0].(telemetry.RegistrationRefused); ev.Round != 0 || !strings.Contains(ev.Err, "client ID 999 out of range") {
		t.Fatalf("refusal = %+v", ev)
	}
}

// TestChaosCompressedMatchesRaw pins the compression layer under fault
// injection: a compressed federation and a raw one, driven by the same
// fault seed, must drop the same clients in the same rounds and finish
// with byte-identical weights — corruption surfaces as checksum-failed
// frames (drop reason "protocol"), never as silently-wrong decoded
// weights. The plan uses only write-count-independent faults (a
// straggler and a corruptor): compressed frames split into different
// write counts than raw frames, so a DropAfterWrites crasher would
// legitimately diverge between the two runs.
func TestChaosCompressedMatchesRaw(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fault-injection run")
	}
	t.Parallel()
	plan := func(seed uint64) *faultnet.Plan {
		return &faultnet.Plan{
			Seed: seed,
			Peers: map[int]faultnet.PeerPlan{
				1: {SkipWrites: 1, WriteDelay: 5 * time.Minute},
				2: {SkipWrites: 1, CorruptProb: 1},
			},
		}
	}
	raw, _ := runChaos(t, chaosConfig(), aggregate.NewFedAvg(), plan(7), ClientOptions{})

	ccfg := chaosConfig()
	ccfg.Compress = true
	comp, sink := runChaos(t, ccfg, aggregate.NewFedAvg(), plan(7), ClientOptions{Compress: true})

	if len(raw.Rounds) != len(comp.Rounds) {
		t.Fatalf("round counts differ: %d vs %d", len(raw.Rounds), len(comp.Rounds))
	}
	for i := range raw.Rounds {
		if !reflect.DeepEqual(raw.Rounds[i].Dropped, comp.Rounds[i].Dropped) {
			t.Fatalf("round %d exclusion differs: raw %v, compressed %v",
				i+1, raw.Rounds[i].Dropped, comp.Rounds[i].Dropped)
		}
	}
	if !reflect.DeepEqual(raw.FinalWeights, comp.FinalWeights) {
		t.Fatal("same fault seed: compressed final weights diverge from raw")
	}
	sawCorruptorDrop := false
	for _, ev := range sink.ByKind("ClientDropped") {
		d := ev.(telemetry.ClientDropped)
		if d.ClientID == 2 && d.Reason == "protocol" {
			sawCorruptorDrop = true
		}
	}
	if !sawCorruptorDrop {
		t.Fatal("corruptor was never dropped with reason \"protocol\"")
	}
}
