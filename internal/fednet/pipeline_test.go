package fednet

import (
	"fmt"
	"testing"

	"fedguard/internal/aggregate"
	"fedguard/internal/classifier"
	"fedguard/internal/cvae"
	"fedguard/internal/defense"
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

// TestStreamAuditQuickPreset is the pipeline acceptance run: the quick
// experiment preset with streaming audit plus encode-once broadcasts
// over the codec lands on the bytes of the same federation in process.
// The in-process run is experiment's canonical FedGuard run, and its
// TestIntegrationPoolWidthDeterminism splices: rounds 1–4 at width 1
// resumed at width 4, and at width 4 resumed at width 1.
func TestStreamAuditQuickPreset(t *testing.T) {
	if testing.Short() {
		t.Skip("a networked quick-preset federation beside the shared in-process one")
	}
	expectSameRun(t, quickStreamRun.get(t), quickGuardRun.get(t))
}

// TestStreamAuditMixedPeersMatchesInProcess runs streaming audit over a
// federation where only half the clients negotiate the codec: raw and
// compressed connections interleave within each round, and the result
// must still match the same federation in process.
func TestStreamAuditMixedPeersMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("trains CVAEs over the network")
	}
	cfg := testConfig()
	cfg.Compress = true
	var sink telemetry.CollectSink
	cfg.Telemetry = telemetry.New(&sink)
	cfg.Telemetry.EnableTracing("server")
	// Even IDs advertise the codec, odd IDs stay raw.
	mixed := func(addr string, id int) error { return RunClient(addr, id, ClientOptions{Compress: id%2 == 0}) }
	streamed := loopback{client: mixed}.mustRun(t, newServer(t, cfg, testSet(), newTestGuard()))
	expectSameRun(t, streamed, inProcess(t, testConfig(), newTestGuard(), testSet()))
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
			s.decoders = make(map[int]*fl.DecoderState)
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
