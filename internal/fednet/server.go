// Package fednet runs the federation of Algorithm 1 over real network
// sockets — the deployment shape of the paper's Grid'5000 evaluation
// (one server node, clients on remote nodes, Ethernet in between).
//
// There is one round loop, fl.RunRounds, and two cohorts it can drive:
// the in-process goroutine pool of fl.Federation and this package's
// Server, which reaches its clients over TCP. Server.Run does what only
// a networked run needs — load a checkpoint, register clients, keep
// accepting rejoins, shut connections down — and hands the rounds to the
// engine; sampling, attacks, stream audit, aggregation, the ψ-update,
// evaluation, telemetry and checkpointing are the engine's on both
// transports.
//
// The server and clients share nothing but the wire protocol (package
// wire) and the experiment seed: each client regenerates its SynthDigits
// shard locally from the data seed, derives its private random stream
// from the experiment seed, and builds its attack role from the setup
// message — so a networked run produces *bit-identical* accuracy
// trajectories to the in-process fl.Federation with the same
// configuration (asserted by TestLoopbackMatchesInProcess).
//
// Unlike the in-process simulator, communication columns here are
// *measured* from the sockets (via wire.CountingConn), frame overhead
// included, rather than computed from payload sizes.
//
// # Fault tolerance
//
// With MinClientsPerRound > 0 the server degrades gracefully instead of
// aborting: per-message deadlines (IOTimeout) and a round-level
// straggler budget (RoundTimeout) bound every wire operation, transient
// failures (timeouts, checksum-corrupt frames) are retried with backoff
// up to MaxRetries, and clients that still fail are dropped for the
// round — excluded from aggregation (and from FedGuard's audit) exactly
// like defense-excluded updates — while the round proceeds with the
// responsive quorum. Dropped or late clients may re-register at any
// time and rejoin from the next round, receiving the current global
// model with their next TrainRequest. All of it is observable:
// ClientDropped / ClientRejoined / RegistrationRefused / RoundDegraded
// events, and each request's retry and timeout counts on its
// server.request span. With MinClientsPerRound == 0 (the zero
// value) there are no deadlines and any client failure aborts the run.
package fednet

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedguard/internal/attack"
	"fedguard/internal/classifier"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/fl"
	"fedguard/internal/persist"
	"fedguard/internal/rng"
	"fedguard/internal/telemetry"
	"fedguard/internal/wire"
)

// Config describes a networked federation. Experiment carries the
// federation shape (N, m, R, α, server LR, malicious fraction, client
// hyperparameters). NewServer overwrites the Experiment fields
// this Config states in networked form: Attack and Client.Arch come from
// AttackName and ArchName — both travel by name so remote clients can
// construct their own — and Telemetry and the checkpoint sink and
// cadence from the fields below.
type Config struct {
	Experiment fl.FederationConfig
	// AttackName is the malicious clients' attack ("" or "none" = benign
	// federation regardless of MaliciousFraction).
	AttackName string
	// ArchName is the classifier registry name shared by both endpoints.
	ArchName string
	// DataSeed and TrainSize let every client regenerate the identical
	// SynthDigits training set locally (no pixels on the wire).
	DataSeed  uint64
	TrainSize int
	// Telemetry, when non-nil, receives structured run events (the
	// round engine's and the network's: drops, rejoins, refused
	// registrations, degraded rounds) and, with tracing enabled, the
	// server's span tree.
	Telemetry *telemetry.T

	// MinClientsPerRound enables fault-tolerant operation when > 0: a
	// round proceeds as long as at least this many sampled clients
	// deliver updates; the rest are dropped for the round and may rejoin
	// later. With 0 (the default) any client failure aborts the run.
	MinClientsPerRound int
	// RoundTimeout bounds the client-training phase of one round; sampled
	// clients that have not delivered by then are dropped (0 = unbounded).
	RoundTimeout time.Duration
	// IOTimeout bounds each individual wire send/receive (0 = unbounded,
	// unless RoundTimeout caps it).
	IOTimeout time.Duration
	// MaxRetries bounds per-client re-requests after transient errors
	// (timeouts, checksum-corrupt frames) within one round. The first
	// retry waits 25 ms, and each further one twice the last.
	MaxRetries int
	// RegisterTimeout bounds the initial registration wait. When it
	// expires with at least MinClientsPerRound clients registered, the
	// run starts without the missing ones (they may still rejoin);
	// with fewer, the run fails. 0 waits for all clients forever.
	RegisterTimeout time.Duration

	// Compress enables the communication-efficiency layer for clients
	// that also advertise it: broadcasts travel as codec-compressed XOR
	// deltas against the previous global each connection holds, client
	// updates as deltas against the round's broadcast, and decoder
	// payloads are deduplicated by content hash (a static decoder crosses
	// the wire once per run instead of once per participation). All of it
	// is lossless — results are bit-identical to raw framing — and
	// negotiated per connection, so compression-off peers interoperate
	// unchanged. false (the default) keeps raw frames for everyone.
	Compress bool

	// Trace enables distributed trace-context propagation for clients
	// that also advertise it (wire.CapTrace): round requests carry the
	// server's request-span identity so the client's train/upload spans
	// parent onto it, and updates carry the client's round-span identity
	// back. Negotiated per connection exactly like Compress; legacy or
	// trace-off peers interoperate on byte-identical legacy frames. The
	// server's own spans are minted only when Telemetry has tracing
	// enabled (telemetry.T.EnableTracing); without it the request frames
	// carry a zero context, and a traced client's spans root trees of
	// their own.
	Trace bool

	// StreamAudit is ignored: the round engine audits each update as it
	// lands whenever the strategy implements fl.StreamingStrategy and the
	// round has no cohort rewrite.
	//
	// Deprecated: nothing reads it; it remains only because the
	// benchmark harness still sets it.
	StreamAudit bool

	// CheckpointDir enables crash-safe round checkpointing when non-empty:
	// after each completed round (at CheckpointEvery cadence) the server
	// atomically persists the run state — global weights, round index,
	// server RNG stream, accumulated history, and the decoder dedup cache
	// — to CheckpointDir. A server restarted with Resume continues from
	// the last checkpointed round; as long as the client processes
	// survived (their private random streams live client-side), the
	// resumed run's final weights are bit-identical to an uninterrupted
	// one.
	CheckpointDir string
	// CheckpointEvery is the checkpoint cadence in rounds (<= 0 means
	// every round). Only meaningful with CheckpointDir set.
	CheckpointEvery int
	// Resume loads the checkpoint in CheckpointDir at startup and
	// continues from the round after it. A missing checkpoint means a
	// cold start; a checkpoint from a different seed, strategy, or
	// federation shape is an error.
	Resume bool
}

// tolerant reports whether graceful degradation is enabled.
func (c *Config) tolerant() bool { return c.MinClientsPerRound > 0 }

// Server is the networked fl.Cohort: it registers remote clients, reaches
// them over TCP each round, and lets fl.RunRounds drive the rounds.
type Server struct {
	cfg      Config
	test     *dataset.Dataset
	strategy fl.Strategy
	// workers is the process's classifier set for cfg.ArchName (see
	// sharedWorkers): what the round engine evaluates ψ on.
	workers *classifier.Set

	// Run-time connection state (guarded by mu). Rejoining clients swap
	// entries while rounds are in flight.
	mu      sync.Mutex
	clients map[int]*clientConn

	// round is the 1-based round currently driving (for rejoin events).
	round atomic.Int64
	// lastRead/lastWritten are the socket totals at the previous round's
	// byte record; WireBytes reports the growth since.
	lastRead, lastWritten int64

	parts     [][]int
	malicious map[int]bool

	// Compressed-path reference state. initGlobal is ψ₀, the delta base
	// every fresh connection starts from (both endpoints derive it from
	// the seed, so it never crosses the wire). decoders caches each
	// client's last decoder payload by content hash — it outlives
	// connections, so a rejoining client's unchanged decoder still
	// dedups. decoderSize is the trusted decode cap for decoder blobs.
	initGlobal  []float32
	decoders    map[int]*decoderCache // guarded by mu
	decoderSize int

	// Encode-once broadcast sharing (guarded by mu): one encoded delta
	// per (round, baseRound) pair, shared by every codec connection
	// holding the same base and refcounted so payload buffers recycle
	// through bcastBufPool. In steady state all connections share the
	// round-(r−1) base, so each round performs one delta encode however
	// many clients it fans out to.
	bcastRound   uint32
	bcast        map[uint32]*bcastEntry
	bcastEncodes atomic.Int64 // actual encodes performed (tests, benches)

	// runSpan is the root of the run's trace (nil when tracing is off).
	// Assigned once in Run before the rejoin accept loop starts, so that
	// goroutine can parent rejoin spans onto it without synchronization.
	runSpan *telemetry.Span

	// kill simulates a server crash for recovery testing: Kill closes it
	// (and every live connection), and the round loop exits with
	// ErrKilled at the next round boundary without sending Shutdown
	// frames — so resilient clients redial instead of exiting cleanly.
	kill     chan struct{}
	killOnce sync.Once
}

// decoderCache is one client's last-delivered decoder payload.
type decoderCache struct {
	hash   uint64
	params []float32
}

// NewServer validates the configuration and returns a server. test is
// evaluated locally each round (the server owns the held-out set, as in
// the paper's harness). This is the one place Config is mapped onto the
// round engine's fl.FederationConfig: the named architecture and attack
// become instances (the server-side attack instance performs the
// post-barrier cohort rewrite for colluding attacks, exactly as the
// in-process federation does), and telemetry and checkpointing move
// from their Config fields into Experiment.
func NewServer(cfg Config, test *dataset.Dataset, strategy fl.Strategy) (*Server, error) {
	arch, err := classifier.ByName(cfg.ArchName)
	if err != nil {
		return nil, err
	}
	workers, err := sharedWorkers(cfg.ArchName)
	if err != nil {
		return nil, err
	}
	exp := &cfg.Experiment
	att, err := attack.ByName(cfg.AttackName, attack.CollusionSeed(exp.Seed))
	if err != nil {
		return nil, err
	}
	if cfg.TrainSize <= 0 {
		return nil, fmt.Errorf("fednet: TrainSize = %d", cfg.TrainSize)
	}
	if cfg.MinClientsPerRound < 0 || cfg.MinClientsPerRound > exp.PerRound {
		return nil, fmt.Errorf("fednet: MinClientsPerRound = %d with m = %d",
			cfg.MinClientsPerRound, exp.PerRound)
	}
	if cfg.RoundTimeout < 0 || cfg.IOTimeout < 0 || cfg.MaxRetries < 0 || cfg.RegisterTimeout < 0 {
		return nil, fmt.Errorf("fednet: negative fault-tolerance parameter")
	}
	if cfg.Resume && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("fednet: Resume requires CheckpointDir")
	}
	exp.Client.Arch = arch
	exp.Attack = att
	exp.Telemetry = cfg.Telemetry
	exp.CheckpointEvery = cfg.CheckpointEvery
	exp.CheckpointSink = nil
	if dir := cfg.CheckpointDir; dir != "" {
		exp.CheckpointSink = func(ck *fl.Checkpoint) (string, int64, error) {
			return persist.SaveCheckpoint(dir, ck)
		}
	}
	if err := exp.Validate(); err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, test: test, strategy: strategy, workers: workers, kill: make(chan struct{})}, nil
}

// ErrKilled is returned by Run when Kill interrupts the round loop — a
// simulated server crash. The history returned alongside it holds the
// rounds completed so far.
var ErrKilled = errors.New("fednet: server killed")

// Kill simulates a hard server crash mid-run: it interrupts the round
// loop at the next round boundary and severs every live connection
// WITHOUT sending Shutdown frames, so resilient clients treat it as a
// transport failure and redial. Safe to call from any goroutine
// (including an onRound callback) and idempotent. Combined with
// CheckpointDir/Resume this is the crash-recovery test hook: kill after
// round k, restart a server with Resume on the same listener address,
// and the run finishes with bit-identical results.
func (s *Server) Kill() {
	s.killOnce.Do(func() {
		close(s.kill)
		for _, c := range s.snapshot() {
			c.count.Close()
		}
	})
}

// killed reports whether Kill has fired.
func (s *Server) killed() bool {
	select {
	case <-s.kill:
		return true
	default:
		return false
	}
}

// clientConn is one registered client's connection state.
type clientConn struct {
	id    int
	conn  net.Conn
	count *wire.CountingConn
	mu    sync.Mutex // one in-flight request at a time per client

	// enc marks a connection that negotiated the compressed encodings.
	enc bool
	// trace marks a connection that negotiated trace-context propagation
	// (wire.CapTrace): round frames carry the trailing trace block.
	trace bool
	// Delta base for the next broadcast on this connection: the global of
	// the last round a TrainRequestC was built for (nil = fresh
	// connection, base ψ₀). The client mirrors this state — it decodes
	// each round's request exactly once, in order, so both ends always
	// agree on the base. Guarded by mu.
	baseVec   []float32
	baseRound uint32
	// lastTR caches the round's encoded request so retries resend
	// byte-identical frames (a re-encode against a moved base would
	// desynchronize the client). Guarded by mu.
	lastTR *wire.TrainRequestC
	// lastEntry is the shared broadcast buffer backing lastTR.Payload;
	// its reference is released when the request is replaced or the
	// connection is dropped. Guarded by mu.
	lastEntry *bcastEntry
}

func (c *clientConn) send(msg any) error {
	return wire.WriteMessage(c.count, msg)
}

func (c *clientConn) recv() (any, error) {
	return wire.ReadMessage(c.count)
}

// errNotConnected marks a sampled client with no live connection.
var errNotConnected = errors.New("fednet: client not connected")

// errProtocol marks a peer that violated the negotiated protocol: a
// codec blob that fails to decode behind a valid checksum, a decoder
// token for a payload the server never cached, a hash that does not
// match its bytes, or different bytes under a hash the server already
// holds. Not transient — retrying would replay the violation.
var errProtocol = errors.New("fednet: protocol violation")

// Run accepts client registrations on ln, configures them, drives R
// federated rounds through fl.RunRounds with this server as the cohort,
// and returns the full history. onRound, if non-nil, fires after every
// round. What stays here is what only a networked run has: the
// checkpoint is loaded before anyone is accepted, clients register, the
// rejoin accept loop runs alongside the rounds, and every connection is
// shut down (or, after Kill, just severed) on the way out.
func (s *Server) Run(ln net.Listener, onRound func(fl.RoundRecord)) (*fl.History, error) {
	cfg := s.cfg.Experiment
	// The partitioner deals indices out by class: the server needs the
	// training set's labels and none of its pixels.
	labels := dataset.GenerateLabels(s.cfg.TrainSize, rng.New(s.cfg.DataSeed))
	s.parts = fl.Partition(&dataset.Dataset{Labels: labels}, cfg)
	s.malicious = fl.MaliciousPlacement(cfg)
	s.initGlobal = fl.InitialGlobal(cfg)
	s.decoders = make(map[int]*decoderCache)
	dcfg := cfg.Client.CVAE
	dcfg.Input = dataset.ImageH * dataset.ImageW
	s.decoderSize = cvae.DecoderSize(dcfg)

	// Load the resume checkpoint before accepting anyone: a mismatched
	// checkpoint must fail fast, and the decoder dedup cache has to be
	// warm before the first compressed request advertises hashes.
	var resume *fl.Checkpoint
	if s.cfg.Resume {
		ck, err := persist.LoadCheckpoint(s.cfg.CheckpointDir)
		switch {
		case errors.Is(err, persist.ErrNoCheckpoint):
			// Cold start: resume requested but nothing written yet.
		case err != nil:
			return nil, fmt.Errorf("fednet: loading checkpoint: %w", err)
		default:
			if err := fl.CheckResume(cfg, s.strategy.Name(), ck); err != nil {
				return nil, err
			}
			if len(ck.Global) != len(s.initGlobal) {
				return nil, fmt.Errorf("fednet: checkpoint global has %d params, model has %d",
					len(ck.Global), len(s.initGlobal))
			}
			for _, d := range ck.Decoders {
				// Snapshot writes every entry with its payload, but a
				// hostile round file can declare a zero-length blob, and
				// a client resending a token needs the bytes back.
				if len(d.Params) > 0 {
					s.decoders[d.ID] = &decoderCache{
						hash:   d.Hash,
						params: append([]float32(nil), d.Params...),
					}
				}
			}
			s.round.Store(int64(ck.Round))
			resume = ck
		}
	}

	if err := s.register(ln); err != nil {
		return nil, err
	}
	// Root of the run's trace (nil — and free — unless tracing was
	// enabled on the bundle). Created before the rejoin accept loop
	// starts so its goroutine can parent rejoin spans onto it.
	s.runSpan = s.cfg.Telemetry.StartRoot("run", telemetry.L("strategy", s.strategy.Name()))
	defer func() {
		for _, c := range s.snapshot() {
			// A killed server crashes silently: no Shutdown frames, so
			// resilient clients see a broken transport and redial the
			// resumed server instead of exiting cleanly.
			if !s.killed() {
				if s.cfg.tolerant() {
					c.conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
				}
				c.send(&wire.Shutdown{})
			}
			c.count.Close()
		}
	}()

	// In tolerant mode, keep accepting: dropped (or late) clients can
	// re-register mid-run and rejoin from the next round.
	var rejoinWG sync.WaitGroup
	stopRejoin := make(chan struct{})
	if s.cfg.tolerant() {
		if _, ok := ln.(deadliner); ok {
			rejoinWG.Add(1)
			go s.acceptRejoins(ln, stopRejoin, &rejoinWG)
		}
	}
	defer func() {
		close(stopRejoin)
		rejoinWG.Wait()
	}()

	// Snapshot the counters so registration/setup traffic is not charged
	// to round 1.
	s.lastRead, s.lastWritten = s.totalBytes()
	return fl.RunRounds(cfg, s.test, s.strategy, s, s.runSpan, resume, onRound)
}

// Workers implements fl.Cohort: the process's set for the run's
// architecture, which clients served from this process run their rounds
// on too.
func (s *Server) Workers() *classifier.Set { return s.workers }

// WireBytes implements fl.Cohort with the bytes *measured* on the
// sockets since the previous round — framing, retries, and every
// compression saving included. From the server's perspective writes are
// uploads, reads are downloads.
func (s *Server) WireBytes([]fl.Update, int64) (up, down int64) {
	read, written := s.totalBytes()
	up, down = written-s.lastWritten, read-s.lastRead
	s.lastRead, s.lastWritten = read, written
	return up, down
}

// Snapshot implements fl.Cohort: the decoder dedup cache, payloads
// included, so a resumed server can answer hash-only decoder tokens from
// rejoining clients. The payloads are aliased, not copied — a cache
// entry is replaced when a client delivers a new decoder and never
// written in place. Client RNG/decoder state lives in the client
// processes and is deliberately NOT captured — networked resume relies
// on the clients surviving the server crash and redialing.
func (s *Server) Snapshot(ck *fl.Checkpoint) {
	s.mu.Lock()
	decs := make([]fl.DecoderState, 0, len(s.decoders))
	for id, e := range s.decoders {
		decs = append(decs, fl.DecoderState{ID: id, Hash: e.hash, Params: e.params})
	}
	s.mu.Unlock()
	sort.Slice(decs, func(i, j int) bool { return decs[i].ID < decs[j].ID })
	ck.Decoders = decs
}

// snapshot returns the live connections.
func (s *Server) snapshot() []*clientConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*clientConn, 0, len(s.clients))
	for _, c := range s.clients {
		out = append(out, c)
	}
	return out
}

// totalBytes sums measured traffic over the live connections.
func (s *Server) totalBytes() (read, written int64) {
	for _, c := range s.snapshot() {
		read += c.count.BytesRead()
		written += c.count.BytesWritten()
	}
	return read, written
}
