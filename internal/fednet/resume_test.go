package fednet

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"fedguard/internal/aggregate"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/defense"
	"fedguard/internal/fl"
	"fedguard/internal/persist"
	"fedguard/internal/rng"
)

// resilientOpts tunes clients for the crash drills: enough redial budget
// at a tight cadence to ride out a server restart (kill, rebind, resume)
// without giving up.
func resilientOpts(compress bool) ClientOptions {
	return ClientOptions{Redials: 400, RedialBackoff: 10 * time.Millisecond, Compress: compress}
}

// crashClients runs every client on a redialing RunClient in its own
// goroutine, so client state (private random stream positions, trained
// CVAE decoders, cached round responses) spans both server lifetimes —
// exactly like client processes that survive a server crash.
type crashClients struct {
	wg   sync.WaitGroup
	errs []error
}

func startCrashClients(addr string, n int, opts ClientOptions) *crashClients {
	cc := &crashClients{errs: make([]error, n)}
	for id := 0; id < n; id++ {
		cc.wg.Add(1)
		go func(id int) {
			defer cc.wg.Done()
			cc.errs[id] = RunClient(addr, id, opts)
		}(id)
	}
	return cc
}

func (cc *crashClients) check(t *testing.T) {
	t.Helper()
	cc.wg.Wait()
	for id, err := range cc.errs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
}

// rebind reclaims the crashed server's address for the resumed server.
// The old listener has just closed, so the first attempts may race the
// kernel's teardown of it.
func rebind(t *testing.T, addr string) net.Listener {
	t.Helper()
	var lastErr error
	for i := 0; i < 200; i++ {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("rebinding %s: %v", addr, lastErr)
	return nil
}

// runKillResume is the full crash drill over real sockets: server 1
// checkpoints every round and is killed from the onRound callback right
// after round k (connections severed without Shutdown frames), then a
// second server — fresh strategy instance, same checkpoint directory,
// Resume on — rebinds the same address while the resilient clients
// redial, and finishes the schedule. Returns the resumed history.
func runKillResume(t *testing.T, cfg Config, test *dataset.Dataset,
	newStrategy func() fl.Strategy, copts ClientOptions, k int) *fl.History {
	t.Helper()
	cfg.CheckpointDir = t.TempDir()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv1, err := NewServer(cfg, test, newStrategy())
	if err != nil {
		t.Fatal(err)
	}
	clients := startCrashClients(addr, cfg.Experiment.NumClients, copts)

	h1, err := srv1.Run(ln, func(rec fl.RoundRecord) {
		if rec.Round == k {
			srv1.Kill()
		}
	})
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("killed server returned %v, want ErrKilled", err)
	}
	if len(h1.Rounds) != k {
		t.Fatalf("killed server completed %d rounds, want %d", len(h1.Rounds), k)
	}
	ln.Close()

	// The checkpoint for round k must already be durable: it is written
	// before onRound fires, so a crash inside the callback never loses
	// the round the caller just observed.
	ck, err := persist.LoadCheckpoint(cfg.CheckpointDir)
	if err != nil {
		t.Fatalf("checkpoint after kill at round %d: %v", k, err)
	}
	if ck.Round != k {
		t.Fatalf("checkpoint holds round %d, want %d", ck.Round, k)
	}
	if k >= 2 {
		// A decoder is persisted once, beside a round file that holds only
		// what a round changes: one blob per client seen (codec peers of a
		// decoder-shipping strategy; nobody else's decoders are cached),
		// never a second generation of one.
		seen := map[int]bool{}
		if copts.Compress && newStrategy().NeedsDecoders() {
			for _, rec := range ck.Rounds {
				for _, id := range rec.Sampled {
					seen[id] = true
				}
			}
		}
		blobs, err := filepath.Glob(filepath.Join(cfg.CheckpointDir, "dec-*.fgw"))
		if err != nil || len(blobs) != len(seen) {
			t.Fatalf("checkpoint directory holds blobs %v (err %v) for %d clients seen", blobs, err, len(seen))
		}
		if st, err := os.Stat(persist.CheckpointPath(cfg.CheckpointDir)); err != nil || st.Size() >= 1<<20 {
			t.Fatalf("round file: %v, err %v; want under 1 MB", st, err)
		}
	}

	cfg2 := cfg
	cfg2.Resume = true
	srv2, err := NewServer(cfg2, test, newStrategy())
	if err != nil {
		t.Fatal(err)
	}
	ln2 := rebind(t, addr)
	defer ln2.Close()
	h2, err := srv2.Run(ln2, nil)
	if err != nil {
		t.Fatalf("resumed server: %v", err)
	}
	clients.check(t)
	return h2
}

// comparableRecord strips the columns a restart legitimately changes:
// wall-clock timings, and the measured wire bytes (a resumed run pays
// re-registration traffic and re-sends reference state the crashed
// connections already carried). Everything deterministic — sampling,
// drops, exclusion reports, accuracies, logical byte columns — must
// match exactly.
func comparableRecord(r fl.RoundRecord) fl.RoundRecord {
	r.Seconds, r.TrainSeconds, r.AggregateSeconds, r.EvalSeconds = 0, 0, 0, 0
	r.WireUploadBytes, r.WireDownloadBytes = 0, 0
	return r
}

// expectResumedIdentical asserts the headline guarantee against an
// uninterrupted baseline run of the same experiment.
func expectResumedIdentical(t *testing.T, baseline, resumed *fl.History) {
	t.Helper()
	if len(resumed.Rounds) != len(baseline.Rounds) {
		t.Fatalf("resumed run has %d rounds, want %d", len(resumed.Rounds), len(baseline.Rounds))
	}
	for i := range baseline.Rounds {
		want, got := comparableRecord(baseline.Rounds[i]), comparableRecord(resumed.Rounds[i])
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d diverged:\nbaseline %+v\nresumed  %+v", i+1, want, got)
		}
	}
	if !reflect.DeepEqual(baseline.FinalWeights, resumed.FinalWeights) {
		t.Fatal("final weights diverged from the uninterrupted run")
	}
}

// TestKillResumeLoopback is the quick networked crash drill: a FedAvg
// federation under sign-flip attack is killed after each interior round
// and resumed, landing on the uninterrupted run's exact history.
func TestKillResumeLoopback(t *testing.T) {
	cfg := testConfig()
	cfg.Experiment.Rounds = 3
	cfg.AttackName = "sign-flip"
	cfg.Experiment.MaliciousFraction = 0.4
	test := dataset.Generate(40, dataset.DefaultGenOptions(), rng.New(5))
	baseline := runLoopback(t, cfg, aggregate.NewFedAvg(), test)

	for k := 1; k < cfg.Experiment.Rounds; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			newStrategy := func() fl.Strategy { return aggregate.NewFedAvg() }
			resumed := runKillResume(t, cfg, test, newStrategy, resilientOpts(false), k)
			expectResumedIdentical(t, baseline, resumed)
		})
	}
}

// errMidRoundKill marks the simulated crash in midRoundKiller.
var errMidRoundKill = errors.New("simulated mid-round crash")

// midRoundKiller crashes the server *inside* round `at`, after every
// sampled client has trained and uploaded but before the aggregate is
// applied — the worst checkpoint-boundary case: the round is lost
// server-side while the clients' random streams have already advanced.
type midRoundKiller struct {
	inner fl.Strategy
	srv   *Server
	at    int
}

func (m *midRoundKiller) Name() string        { return m.inner.Name() }
func (m *midRoundKiller) NeedsDecoders() bool { return m.inner.NeedsDecoders() }
func (m *midRoundKiller) Aggregate(ctx *fl.RoundContext) ([]float32, error) {
	if ctx.Round == m.at {
		m.srv.Kill()
		return nil, errMidRoundKill
	}
	return m.inner.Aggregate(ctx)
}

// TestKillResumeMidRound proves the duplicate-round machinery: the
// server dies during round k+1 aggregation, resumes from the round-k
// checkpoint, and re-requests round k+1. Clients that already trained it
// must answer from their cached responses WITHOUT retraining — a retrain
// would advance their streams and diverge the final weights, so byte
// equality is proof the replay path engaged. Runs raw and compressed:
// the compressed resend must first decode the fresh connection's
// broadcast to stay delta-synchronized. And runs with the resumed server
// negotiating the other dialect than the crashed one did: what the
// session keeps of round k+1 is the update, not a frame of it, so the
// redial is answered from it all the same.
func TestKillResumeMidRound(t *testing.T) {
	test := dataset.Generate(40, dataset.DefaultGenOptions(), rng.New(5))
	for _, tc := range []struct {
		name              string
		compress, resumed bool // the crashed and the resumed server's Compress
	}{
		{"compress=false", false, false},
		{"compress=true", true, true},
		{"raw then codec", false, true},
		{"codec then raw", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			compress := tc.compress
			cfg := testConfig()
			cfg.Experiment.Rounds = 3
			cfg.AttackName = "sign-flip"
			cfg.Experiment.MaliciousFraction = 0.4
			baseline := runLoopback(t, cfg, aggregate.NewFedAvg(), test)

			const k = 1 // checkpointed round; the crash hits round k+1
			cfg.Compress = compress
			cfg.CheckpointDir = t.TempDir()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			killer := &midRoundKiller{inner: aggregate.NewFedAvg(), at: k + 1}
			srv1, err := NewServer(cfg, test, killer)
			if err != nil {
				t.Fatal(err)
			}
			killer.srv = srv1
			clients := startCrashClients(addr, cfg.Experiment.NumClients, resilientOpts(tc.compress || tc.resumed))

			_, err = srv1.Run(ln, nil)
			if !errors.Is(err, errMidRoundKill) {
				t.Fatalf("crashed server returned %v, want errMidRoundKill", err)
			}
			ln.Close()
			ck, err := persist.LoadCheckpoint(cfg.CheckpointDir)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Round != k {
				t.Fatalf("checkpoint holds round %d, want %d (round %d died mid-flight)", ck.Round, k, k+1)
			}

			cfg2 := cfg
			cfg2.Resume = true
			cfg2.Compress = tc.resumed
			srv2, err := NewServer(cfg2, test, aggregate.NewFedAvg())
			if err != nil {
				t.Fatal(err)
			}
			ln2 := rebind(t, addr)
			defer ln2.Close()
			h, err := srv2.Run(ln2, nil)
			if err != nil {
				t.Fatalf("resumed server: %v", err)
			}
			clients.check(t)
			expectResumedIdentical(t, baseline, h)
		})
	}
}

// TestCrashPointMatrix is the acceptance matrix: a networked FedGuard
// federation under sign-flip attack, killed after every interior round
// and resumed, across three seeds, raw and codec peers, and barrier and
// stream audit. Every cell must land on the single uninterrupted
// baseline's exact final weights and exclusion sequence — the baseline
// is run raw/barrier, so codec and stream cells simultaneously re-prove
// their own bit-identity contracts under crash recovery.
func TestCrashPointMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("many full networked FedGuard federations")
	}
	test := dataset.Generate(40, dataset.DefaultGenOptions(), rng.New(5))
	for _, seed := range []uint64{99, 7, 21} {
		base := testConfig()
		base.Experiment.Rounds = 3
		base.Experiment.Seed = seed
		base.AttackName = "sign-flip"
		base.Experiment.MaliciousFraction = 0.4
		newGuard := func() fl.Strategy {
			g := defense.NewFedGuard(base.Experiment.Client.Arch, cvae.Config{
				Input: 784, Hidden: 16, Latent: 2, Classes: 10,
			})
			g.Samples = 8
			return g
		}
		baseline := runLoopback(t, base, newGuard(), test)
		for _, compress := range []bool{false, true} {
			for _, streamAudit := range []bool{false, true} {
				for k := 1; k < base.Experiment.Rounds; k++ {
					name := fmt.Sprintf("seed=%d/compress=%v/stream=%v/k=%d", seed, compress, streamAudit, k)
					t.Run(name, func(t *testing.T) {
						cfg := base
						cfg.Compress = compress
						cfg.StreamAudit = streamAudit
						resumed := runKillResume(t, cfg, test, newGuard, resilientOpts(compress), k)
						expectResumedIdentical(t, baseline, resumed)
					})
				}
			}
		}
	}
}

// TestResumeWithoutCheckpointColdStarts pins the operational contract:
// -resume with an empty checkpoint directory is a cold start, not an
// error, and the run both matches a plain run and leaves a final-round
// checkpoint behind.
func TestResumeWithoutCheckpointColdStarts(t *testing.T) {
	cfg := testConfig()
	test := dataset.Generate(40, dataset.DefaultGenOptions(), rng.New(5))
	baseline := runLoopback(t, cfg, aggregate.NewFedAvg(), test)

	cfg2 := cfg
	cfg2.CheckpointDir = t.TempDir()
	cfg2.Resume = true
	h := runLoopback(t, cfg2, aggregate.NewFedAvg(), test)
	if !reflect.DeepEqual(baseline.FinalWeights, h.FinalWeights) {
		t.Fatal("cold-started resume run diverged from a plain run")
	}
	ck, err := persist.LoadCheckpoint(cfg2.CheckpointDir)
	if err != nil {
		t.Fatalf("no checkpoint after checkpointed run: %v", err)
	}
	if ck.Round != cfg.Experiment.Rounds {
		t.Fatalf("final checkpoint holds round %d, want %d", ck.Round, cfg.Experiment.Rounds)
	}
}

// TestServerResumeValidation: Resume without a directory is rejected at
// construction; a checkpoint from a different run (wrong seed) is
// rejected before any client is accepted.
func TestServerResumeValidation(t *testing.T) {
	test := dataset.Generate(10, dataset.DefaultGenOptions(), rng.New(1))

	cfg := testConfig()
	cfg.Resume = true
	if _, err := NewServer(cfg, test, aggregate.NewFedAvg()); err == nil {
		t.Fatal("Resume without CheckpointDir accepted")
	}

	cfg = testConfig()
	cfg.CheckpointDir = t.TempDir()
	cfg.Resume = true
	if _, _, err := persist.SaveCheckpoint(cfg.CheckpointDir, &fl.Checkpoint{
		Round:     1,
		Seed:      cfg.Experiment.Seed + 1,
		Strategy:  "FedAvg",
		Global:    []float32{0},
		ServerRNG: rng.New(1).State(),
		Rounds:    []fl.RoundRecord{{Round: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(cfg, test, aggregate.NewFedAvg())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := srv.Run(ln, nil); err == nil {
		t.Fatal("checkpoint from a different seed accepted")
	}
}
