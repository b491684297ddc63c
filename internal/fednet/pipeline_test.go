package fednet

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"fedguard/internal/aggregate"
	"fedguard/internal/classifier"
	"fedguard/internal/cvae"
	"fedguard/internal/defense"
	"fedguard/internal/faultnet"
	"fedguard/internal/fl"
	"fedguard/internal/rng"
	"fedguard/internal/telemetry"
)

// newTestGuard builds a real FedGuard matched to testConfig's client
// CVAE shape.
func newTestGuard() *defense.FedGuard {
	return defense.NewFedGuard(classifier.Tiny(),
		cvae.Config{Input: 784, Hidden: 16, Latent: 2, Classes: 10})
}

// TestStreamAuditLoopbackMatchesBarrier is the round-pipeline
// determinism pin: a streaming-audit FedGuard federation must finish
// with byte-identical weights and decisions to the barrier ordering, for
// several experiment seeds, over the compressed wire path (so
// encode-once broadcast sharing is in the loop too).
func TestStreamAuditLoopbackMatchesBarrier(t *testing.T) {
	if testing.Short() {
		t.Skip("trains CVAEs over the network, twice per seed")
	}
	test := testSet()
	for _, seed := range []uint64{99, 7, 21} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := testConfig()
			cfg.Experiment.Seed = seed
			cfg.Compress = true

			barrier := runLoopback(t, cfg, newTestGuard(), test, ClientOptions{Compress: true})

			cfg.StreamAudit = true
			streamed := runLoopback(t, cfg, newTestGuard(), test, ClientOptions{Compress: true})

			if !reflect.DeepEqual(barrier.FinalWeights, streamed.FinalWeights) {
				t.Fatal("streaming audit diverged from barrier final weights")
			}
			for i := range barrier.Rounds {
				b, s := barrier.Rounds[i], streamed.Rounds[i]
				if len(b.Decisions) == 0 || b.Threshold != s.Threshold || !reflect.DeepEqual(b.Decisions, s.Decisions) {
					t.Fatalf("round %d decisions differ: %v at %v vs %v at %v",
						i+1, b.Decisions, b.Threshold, s.Decisions, s.Threshold)
				}
			}
		})
	}
}

// TestStreamAuditQuickPreset is the pipeline acceptance run: the quick
// experiment preset with streaming audit plus encode-once broadcasts
// over the codec lands on the bytes of the in-process barrier run. The
// streamed in-process run is experiment's
// TestIntegrationPoolWidthDeterminism splice: rounds 1–4 at width 4
// (FedGuard-stream) resumed at width 1 (Resume).
func TestStreamAuditQuickPreset(t *testing.T) {
	if testing.Short() {
		t.Skip("a networked quick-preset federation beside the shared in-process one")
	}
	expectSameRun(t, quickStreamRun.get(t), quickGuardRun.get(t))
}

// TestStreamAuditMixedPeersMatchesBarrier runs streaming audit over a
// federation where only half the clients negotiate the codec: raw and
// compressed connections interleave within each round, and the result
// must still match the barrier run of the identical mixed federation.
func TestStreamAuditMixedPeersMatchesBarrier(t *testing.T) {
	if testing.Short() {
		t.Skip("trains CVAEs over the network, twice")
	}
	run := func(streamAudit bool, tel *telemetry.T) *fl.History {
		cfg := testConfig()
		cfg.Compress = true
		cfg.StreamAudit = streamAudit
		cfg.Telemetry = tel
		// Even IDs advertise the codec, odd IDs stay raw.
		mixed := func(addr string, id int) error { return RunClient(addr, id, ClientOptions{Compress: id%2 == 0}) }
		return loopback{client: mixed}.mustRun(t, newServer(t, cfg, testSet(), newTestGuard()))
	}
	barrier := run(false, nil)
	var sink telemetry.CollectSink
	tel := telemetry.New(&sink)
	tel.EnableTracing("server")
	streamed := run(true, tel)
	if !reflect.DeepEqual(barrier.FinalWeights, streamed.FinalWeights) {
		t.Fatal("streaming audit with mixed peers diverged from barrier run")
	}
	// The equality above is only meaningful if the stream actually ran:
	// the server records one audit-overlap span per streamed round.
	spans := map[string]int{}
	for _, e := range sink.ByKind("Span") {
		spans[e.(telemetry.SpanEnded).Name]++
	}
	if want := testConfig().Experiment.Rounds; spans["server.audit_stream"] != want {
		t.Fatalf("%d audit-overlap spans, want %d — streaming audit never engaged", spans["server.audit_stream"], want)
	}
	if spans["server.encode_broadcast"] == 0 {
		t.Fatal("no broadcast-encode spans on the compressed path")
	}
}

// TestStreamAuditChaosMatchesBarrier drives the streaming pipeline
// through fault injection — a mid-upload crasher and a straggler — with
// a real FedGuard. Dropped clients force the stream's batch fallback;
// the run must drop the same clients and produce the same bytes as the
// barrier ordering under the identical fault seed.
func TestStreamAuditChaosMatchesBarrier(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fault-injection run with CVAE training")
	}
	t.Parallel()
	// Write-count-dependent faults would diverge between runs only if the
	// two runs wrote different frame sequences; stream vs barrier changes
	// server-side compute order, not frames, so the crasher stays.
	plan := func() *faultnet.Plan {
		return &faultnet.Plan{
			Seed: 7,
			Peers: map[int]faultnet.PeerPlan{
				0: {SkipWrites: 1, DropAfterWrites: 2},
				1: {SkipWrites: 1, WriteDelay: 5 * time.Minute},
			},
		}
	}
	run := func(streamAudit bool) *fl.History {
		cfg := chaosConfig()
		cfg.StreamAudit = streamAudit
		h, _ := runChaos(t, cfg, newTestGuard(), plan(), ClientOptions{})
		return h
	}
	barrier := run(false)
	streamed := run(true)
	if len(barrier.Rounds) != len(streamed.Rounds) {
		t.Fatalf("round counts differ: %d vs %d", len(barrier.Rounds), len(streamed.Rounds))
	}
	for i := range barrier.Rounds {
		if !reflect.DeepEqual(barrier.Rounds[i].Dropped, streamed.Rounds[i].Dropped) {
			t.Fatalf("round %d drops differ: %v vs %v",
				i+1, barrier.Rounds[i].Dropped, streamed.Rounds[i].Dropped)
		}
	}
	if !reflect.DeepEqual(barrier.FinalWeights, streamed.FinalWeights) {
		t.Fatal("streaming audit under chaos diverged from barrier final weights")
	}
}

// TestBroadcastEncodeOnce pins the fan-out property: with every client
// on the codec path and no drops, each round's broadcast is
// delta-encoded exactly once however many clients it reaches (round one
// shares the ψ₀ base the same way).
func TestBroadcastEncodeOnce(t *testing.T) {
	cfg := testConfig()
	cfg.Experiment.PerRound = cfg.Experiment.NumClients // all share one base per round
	cfg.Compress = true
	srv := newServer(t, cfg, testSet(), aggregate.NewFedAvg())
	loopback{client: withOpts(ClientOptions{Compress: true})}.mustRun(t, srv)
	want := int64(cfg.Experiment.Rounds)
	if got := srv.bcastEncodes.Load(); got != want {
		t.Fatalf("%d broadcast encodes for %d rounds × %d clients, want %d (one per round)",
			got, cfg.Experiment.Rounds, cfg.Experiment.NumClients, want)
	}
}

// BenchmarkServerBroadcastFanout measures building one round's
// compressed broadcast for m connections sharing a delta base. The
// encodes/round metric is the point: it stays at 1 as m grows, so the
// per-connection cost degenerates to a cache hit plus refcount.
func BenchmarkServerBroadcastFanout(b *testing.B) {
	r := rng.New(42)
	base := make([]float32, 65_536)
	r.FillNormal(base, 0, 0.1)
	step := make([]float32, len(base))
	r.FillNormal(step, 0, 0.001)

	for _, m := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("conns=%d", m), func(b *testing.B) {
			s := &Server{initGlobal: base}
			s.decoders = make(map[int]*decoderCache)
			conns := make([]*clientConn, m)
			for i := range conns {
				conns[i] = &clientConn{id: i, enc: true}
			}
			global := make([]float32, len(base))
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				round := n + 1
				// A fresh global each round, as the server would hold.
				prev := s.initGlobal
				if round > 1 {
					prev = conns[0].baseVec
				}
				for i := range global {
					global[i] = prev[i] + step[i]
				}
				for _, c := range conns {
					c.mu.Lock()
					if _, err := s.buildRequestC(c, round, false, global, nil); err != nil {
						c.mu.Unlock()
						b.Fatal(err)
					}
					c.mu.Unlock()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(s.bcastEncodes.Load())/float64(b.N), "encodes/round")
		})
	}
}
