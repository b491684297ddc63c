package fednet

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
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
// Resume on — rebinds the same address while the clients redial, and
// finishes the schedule. Every client runs one redialing RunClient
// across both server lifetimes, so its state (private random stream
// positions, trained CVAE decoders, cached round responses) survives the
// crash exactly like a client process would. Returns the resumed history.
func runKillResume(t *testing.T, cfg Config, test *dataset.Dataset,
	newStrategy func() fl.Strategy, copts ClientOptions, k int) *fl.History {
	t.Helper()
	cfg.CheckpointDir = t.TempDir()
	srv1 := newServer(t, cfg, test, newStrategy())
	var h2 *fl.History
	drill := loopback{
		client: withOpts(copts),
		onRound: func(rec fl.RoundRecord) {
			if rec.Round == k {
				srv1.Kill()
			}
		},
		then: func(addr string) {
			// The checkpoint for round k must already be durable: it is
			// written before onRound fires, so a crash inside the callback
			// never loses the round the caller just observed.
			ck, err := persist.LoadCheckpoint(cfg.CheckpointDir)
			if err != nil {
				t.Fatalf("checkpoint after kill at round %d: %v", k, err)
			}
			if ck.Round != k {
				t.Fatalf("checkpoint holds round %d, want %d", ck.Round, k)
			}
			if k >= 2 {
				// A decoder is persisted once, beside a round file that holds
				// only what a round changes: one blob per client seen (codec
				// peers of a decoder-shipping strategy; nobody else's
				// decoders are cached), never a second generation of one.
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
			h2 = resumeOn(t, addr, cfg2, test, newStrategy())
		},
	}
	h1, clientErrs, err := drill.run(t, srv1)
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("killed server returned %v, want ErrKilled", err)
	}
	if len(h1.Rounds) != k {
		t.Fatalf("killed server completed %d rounds, want %d", len(h1.Rounds), k)
	}
	requireNoErrors(t, clientErrs)
	return h2
}

// resumeOn runs the resumed server of a crash drill on the crashed one's
// address, returning its history.
func resumeOn(t *testing.T, addr string, cfg Config, test *dataset.Dataset, strategy fl.Strategy) *fl.History {
	t.Helper()
	srv := newServer(t, cfg, test, strategy)
	ln := rebind(t, addr)
	defer ln.Close()
	h, err := srv.Run(ln, nil)
	if err != nil {
		t.Fatalf("resumed server: %v", err)
	}
	return h
}

// TestKillResumeLoopback is the quick networked crash drill: a FedAvg
// federation under sign-flip attack is killed after each interior round
// and resumed, landing on the uninterrupted run's exact history.
func TestKillResumeLoopback(t *testing.T) {
	cfg := signFlipConfig()
	for k := 1; k < cfg.Experiment.Rounds; k++ {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			newStrategy := func() fl.Strategy { return aggregate.NewFedAvg() }
			resumed := runKillResume(t, cfg, testSet(), newStrategy, resilientOpts(false), k)
			expectSameRun(t, resumed, signFlipRun.get(t))
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
			const k = 1 // checkpointed round; the crash hits round k+1
			cfg := signFlipConfig()
			cfg.Compress = tc.compress
			cfg.CheckpointDir = t.TempDir()
			killer := &midRoundKiller{inner: aggregate.NewFedAvg(), at: k + 1}
			killer.srv = newServer(t, cfg, testSet(), killer)
			var h *fl.History
			drill := loopback{
				client: withOpts(resilientOpts(tc.compress || tc.resumed)),
				then: func(addr string) {
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
					h = resumeOn(t, addr, cfg2, testSet(), aggregate.NewFedAvg())
				},
			}
			_, clientErrs, err := drill.run(t, killer.srv)
			if !errors.Is(err, errMidRoundKill) {
				t.Fatalf("crashed server returned %v, want errMidRoundKill", err)
			}
			requireNoErrors(t, clientErrs)
			expectSameRun(t, h, signFlipRun.get(t))
		})
	}
}

// TestCrashPointMatrix is the acceptance matrix: a networked FedGuard
// federation killed after every interior round and resumed, across
// three seeds and raw and codec peers. Under sign-flip every round
// streams its audit (stream=true). Under ALIE, with three of five
// clients colluding, every round samples a colluder, so the engine
// rewrites the cohort after the barrier and the audit runs there
// (stream=false). Every cell must land on its schedule's uninterrupted
// raw baseline's exact final weights and exclusion sequence, so codec
// cells re-prove the codec's bit-identity contract under crash recovery.
func TestCrashPointMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("many full networked FedGuard federations")
	}
	t.Parallel()
	test := testSet()
	for _, seed := range []uint64{99, 7, 21} {
		for _, streamAudit := range []bool{false, true} {
			base := signFlipConfig()
			base.Experiment.Seed = seed
			if !streamAudit {
				base.AttackName, base.Experiment.MaliciousFraction = "alie", 0.6
			}
			newGuard := func() fl.Strategy {
				g := defense.NewFedGuard(base.Experiment.Client.Arch, cvae.Config{
					Input: 784, Hidden: 16, Latent: 2, Classes: 10,
				})
				g.Samples = 8
				return g
			}
			baseline := runLoopback(t, base, newGuard(), test, ClientOptions{})
			for _, rec := range baseline.Rounds {
				if !streamAudit && rec.MaliciousSampled == 0 {
					t.Fatalf("seed %d: round %d sampled no colluder, so it streamed", seed, rec.Round)
				}
			}
			for _, compress := range []bool{false, true} {
				for k := 1; k < base.Experiment.Rounds; k++ {
					name := fmt.Sprintf("seed=%d/compress=%v/stream=%v/k=%d", seed, compress, streamAudit, k)
					t.Run(name, func(t *testing.T) {
						cfg := base
						cfg.Compress = compress
						resumed := runKillResume(t, cfg, test, newGuard, resilientOpts(compress), k)
						expectSameRun(t, resumed, baseline)
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
	cfg := signFlipConfig()
	cfg.CheckpointDir = t.TempDir()
	cfg.Resume = true
	h := runLoopback(t, cfg, aggregate.NewFedAvg(), testSet(), ClientOptions{})
	expectSameRun(t, h, signFlipRun.get(t))
	ck, err := persist.LoadCheckpoint(cfg.CheckpointDir)
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
	test := testSet()

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
	if _, _, err := (loopback{}).run(t, newServer(t, cfg, test, aggregate.NewFedAvg())); err == nil {
		t.Fatal("checkpoint from a different seed accepted")
	}
}
