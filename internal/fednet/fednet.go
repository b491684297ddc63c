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
// ClientDropped / ClientRejoined / RoundDegraded events plus retry,
// timeout, and drop counters. With MinClientsPerRound == 0 (the zero
// value) there are no deadlines and any client failure aborts the run.
package fednet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fedguard/internal/attack"
	"fedguard/internal/classifier"
	"fedguard/internal/codec"
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
// hyperparameters, sampler). NewServer overwrites the Experiment fields
// this Config states in networked form: Attack and Client.Arch come from
// AttackName and ArchName — both travel by name so remote clients can
// construct their own — and Telemetry, StreamAudit and the checkpoint
// sink and cadence from the fields below.
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
	// Telemetry, when non-nil, receives structured run events,
	// phase-level metrics, and per-peer measured byte-count gauges.
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
	// (timeouts, checksum-corrupt frames) within one round.
	MaxRetries int
	// RetryBackoff is the initial sleep between retries, doubling each
	// attempt (default 25ms when retries are enabled).
	RetryBackoff time.Duration
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
	// trace-off peers interoperate on byte-identical legacy frames.
	// Spans are actually minted only when Telemetry has tracing enabled
	// (telemetry.T.EnableTracing); Trace alone just negotiates the
	// capability.
	Trace bool

	// StreamAudit overlaps the strategy's per-update audit with the
	// round's upload phase when the strategy implements
	// fl.StreamingStrategy (FedGuard): each client's update is handed to
	// the round's stream the moment it is decoded, so decoder synthesis
	// and scoring hide in the network shadow instead of running serially
	// after the quorum barrier. Results are byte-identical to the barrier
	// path — on drop-outs or any stream inconsistency the round falls
	// back to the batch computation internally. false keeps the strict
	// barrier ordering.
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

// NewAttackByName builds an attack instance from its wire name.
// AdditiveNoise instances built from the same seed draw the same
// collusive noise vector, so per-client construction preserves the
// paper's collusion semantics. The colluding extension attacks (alie,
// ipm, min-max) collude here as they do in-process: each malicious
// client uploads its PoisonModel draft, and the server's own instance
// (built by NewServer) rewrites the round's drafts jointly after the
// barrier.
func NewAttackByName(name string, seed uint64) (attack.Attack, error) {
	switch name {
	case "", "none":
		return attack.None{}, nil
	case "same-value":
		return attack.NewSameValue(), nil
	case "sign-flip":
		return attack.NewSignFlip(), nil
	case "additive-noise":
		return attack.NewAdditiveNoise(0.5, seed), nil
	case "label-flip":
		return attack.NewLabelFlip(), nil
	case "scaled-boost":
		return attack.NewScaledBoost(attack.DefaultBoostLambda), nil
	case "alie":
		return attack.NewALIE(), nil
	case "ipm":
		return attack.NewIPM(), nil
	case "min-max":
		return attack.NewMinMax(""), nil
	case "decoder-forge":
		return attack.NewDecoderForge(), nil
	default:
		return nil, fmt.Errorf("fednet: unknown attack %q", name)
	}
}

// Server is the networked fl.Cohort: it registers remote clients, reaches
// them over TCP each round, and lets fl.RunRounds drive the rounds.
type Server struct {
	cfg      Config
	test     *dataset.Dataset
	strategy fl.Strategy

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

// bcastEntry is one shared encoded broadcast payload. refs counts the
// connections whose cached round request references payload; when it
// drops to zero the buffer returns to bcastBufPool.
type bcastEntry struct {
	payload []byte
	refs    int
}

// bcastBufPool recycles broadcast payload buffers between rounds.
var bcastBufPool = sync.Pool{New: func() any { return []byte(nil) }}

// NewServer validates the configuration and returns a server. test is
// evaluated locally each round (the server owns the held-out set, as in
// the paper's harness). This is the one place Config is mapped onto the
// round engine's fl.FederationConfig: the named architecture and attack
// become instances (the server-side attack instance performs the
// post-barrier cohort rewrite for colluding attacks, exactly as the
// in-process federation does), and telemetry, stream audit and
// checkpointing move from their Config fields into Experiment.
func NewServer(cfg Config, test *dataset.Dataset, strategy fl.Strategy) (*Server, error) {
	arch, err := classifier.ByName(cfg.ArchName)
	if err != nil {
		return nil, err
	}
	exp := &cfg.Experiment
	att, err := NewAttackByName(cfg.AttackName, rng.DeriveSeed(exp.Seed, "noise", 0))
	if err != nil {
		return nil, err
	}
	if t, ok := att.(attack.AGRTailored); ok {
		t.TailorTo(strategy.Name())
	}
	if cfg.TrainSize <= 0 {
		return nil, fmt.Errorf("fednet: TrainSize = %d", cfg.TrainSize)
	}
	if cfg.MinClientsPerRound < 0 || cfg.MinClientsPerRound > exp.PerRound {
		return nil, fmt.Errorf("fednet: MinClientsPerRound = %d with m = %d",
			cfg.MinClientsPerRound, exp.PerRound)
	}
	if cfg.RoundTimeout < 0 || cfg.IOTimeout < 0 || cfg.MaxRetries < 0 ||
		cfg.RetryBackoff < 0 || cfg.RegisterTimeout < 0 {
		return nil, fmt.Errorf("fednet: negative fault-tolerance parameter")
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	if cfg.Resume && cfg.CheckpointDir == "" {
		return nil, fmt.Errorf("fednet: Resume requires CheckpointDir")
	}
	exp.Client.Arch = arch
	exp.Attack = att
	exp.Telemetry = cfg.Telemetry
	exp.StreamAudit = cfg.StreamAudit
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
	return &Server{cfg: cfg, test: test, strategy: strategy, kill: make(chan struct{})}, nil
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
				// Hash-only entries (params not checkpointed) are useless
				// here: a client resending a token needs the bytes back.
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
	tel := s.cfg.Telemetry
	if tel != nil && tel.Metrics != nil {
		// Per-peer request latency wants log-spaced resolution: a LAN
		// exchange and a straggler behind chaos injection differ by four
		// orders of magnitude.
		tel.Metrics.SetBuckets(telemetry.PeerLatencyMetric,
			telemetry.LogBuckets(0.0005, 120, 5))
	}
	// Root of the run's trace (nil — and free — unless tracing was
	// enabled on the bundle). Created before the rejoin accept loop
	// starts so its goroutine can parent rejoin spans onto it.
	s.runSpan = tel.StartRoot("run", telemetry.L("strategy", s.strategy.Name()))
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
			// Closing the wrapper (not the raw conn) fires the counting
			// hook, publishing each peer's final byte totals.
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

// WireBytes implements fl.Cohort with the bytes *measured* on the
// sockets since the previous round — framing, retries, and every
// compression saving included. From the server's perspective writes are
// uploads, reads are downloads.
func (s *Server) WireBytes([]fl.Update, int64) (up, down int64) {
	read, written := s.totalBytes()
	s.publishPeerBytes()
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

// Train implements fl.Cohort around trainRound. After Kill the round
// does not start, and a round that failed on the server's own severed
// connections is not a failed round: both are ErrKilled.
func (s *Server) Train(round int, sampled []int, global []float32, needDecoders bool, stream fl.RoundStream, roundSpan *telemetry.Span) ([]fl.Update, []int, error) {
	if s.killed() {
		return nil, nil, ErrKilled
	}
	s.round.Store(int64(round))
	updates, dropped, err := s.trainRound(round, sampled, global, needDecoders, stream, roundSpan)
	if err != nil && s.killed() {
		return nil, nil, ErrKilled
	}
	return updates, dropped, err
}

// trainRound fans one round's work out to the sampled clients and
// collects the responsive updates in sampled order. In tolerant mode,
// failing clients are dropped (telemetry + connection teardown) and the
// round proceeds as long as the quorum holds; in strict mode any failure
// aborts. A non-nil stream receives each decoded update at its sampled
// slot the moment it arrives, so the strategy's audit overlaps the
// remaining uploads; slots line up with the compacted updates slice only
// on drop-free rounds, which is exactly when the stream's fast path is
// valid (Finalize detects the mismatch otherwise and falls back).
func (s *Server) trainRound(round int, sampled []int, global []float32, needDecoders bool, stream fl.RoundStream, roundSpan *telemetry.Span) ([]fl.Update, []int, error) {
	tel := s.cfg.Telemetry
	conns := make([]*clientConn, len(sampled))
	s.mu.Lock()
	for i, id := range sampled {
		conns[i] = s.clients[id]
	}
	s.mu.Unlock()

	var deadline time.Time
	if s.cfg.RoundTimeout > 0 {
		deadline = time.Now().Add(s.cfg.RoundTimeout)
	}

	results := make([]fl.Update, len(sampled))
	errs := make([]error, len(sampled))
	var wg sync.WaitGroup
	for i := range sampled {
		if conns[i] == nil {
			errs[i] = errNotConnected
			// A zero-length request span keeps the sampled client visible
			// in the trace with its drop reason, so fedtrace's per-round
			// tree is complete even for clients that never got a request.
			sp := roundSpan.Child("server.request",
				telemetry.L("client", strconv.Itoa(sampled[i])),
				telemetry.L("outcome", "dropped"),
				telemetry.L("reason", "disconnected"))
			sp.End()
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.trainOne(conns[i], round, needDecoders, global, deadline, roundSpan)
			if errs[i] == nil && stream != nil {
				stream.Submit(i, results[i])
			}
		}(i)
	}
	wg.Wait()

	updates := make([]fl.Update, 0, len(sampled))
	var dropped []int
	for i, err := range errs {
		if err == nil {
			updates = append(updates, results[i])
			continue
		}
		if !s.cfg.tolerant() {
			return nil, nil, fmt.Errorf("fednet: round %d client %d: %w", round, sampled[i], err)
		}
		dropped = append(dropped, sampled[i])
		s.dropClient(round, sampled[i], conns[i], err)
	}
	if s.cfg.tolerant() && len(updates) < s.cfg.MinClientsPerRound {
		return nil, nil, fmt.Errorf("fednet: round %d: %d responsive clients, quorum is %d",
			round, len(updates), s.cfg.MinClientsPerRound)
	}
	if len(dropped) > 0 {
		tel.Emit(telemetry.RoundDegraded{
			Round:      round,
			Sampled:    len(sampled),
			Responsive: len(updates),
			Dropped:    dropped,
		})
		tel.AddCounter("fedguard_net_rounds_degraded_total", 1)
	}
	return updates, dropped, nil
}

// dropClient abandons id's connection for this round: it is removed from
// the registry (unless a rejoin already replaced it), closed, and the
// drop is published as an event plus a reason-labeled counter.
func (s *Server) dropClient(round, id int, c *clientConn, cause error) {
	s.mu.Lock()
	if c != nil && s.clients[id] == c {
		delete(s.clients, id)
	}
	s.mu.Unlock()
	if c != nil {
		c.mu.Lock()
		s.releaseBroadcast(c.lastEntry)
		c.lastEntry = nil
		c.lastTR = nil
		c.mu.Unlock()
		c.count.Close()
	}
	reason := dropReason(cause)
	tel := s.cfg.Telemetry
	tel.Emit(telemetry.ClientDropped{Round: round, ClientID: id, Reason: reason})
	tel.AddCounter("fedguard_net_drops_total", 1, telemetry.L("reason", reason))
}

// dropReason classifies a drop cause for telemetry.
func dropReason(err error) string {
	var ne net.Error
	switch {
	case errors.Is(err, errNotConnected):
		return "disconnected"
	case errors.As(err, &ne) && ne.Timeout():
		return "timeout"
	case errors.Is(err, wire.ErrChecksum) || errors.Is(err, wire.ErrBadFrame) ||
		errors.Is(err, errProtocol):
		return "protocol"
	default:
		return "transport"
	}
}

// transientErr reports whether a failed exchange is worth retrying on
// the same connection: deadline expiries (the update may still arrive)
// and checksum-corrupt frames (the stream stays aligned; the client will
// resend its cached update). Transport errors — EOF, resets, injected
// crashes — are final.
func transientErr(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, wire.ErrChecksum)
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

// publishPeerBytes refreshes the per-peer measured byte gauges from the
// counting wrappers (labels: client=<id>; direction from the server's
// perspective).
func (s *Server) publishPeerBytes() {
	tel := s.cfg.Telemetry
	if tel == nil || tel.Metrics == nil {
		return
	}
	for _, c := range s.snapshot() {
		l := telemetry.L("client", strconv.Itoa(c.id))
		tel.SetGauge("fedguard_peer_bytes_read", float64(c.count.BytesRead()), l)
		tel.SetGauge("fedguard_peer_bytes_written", float64(c.count.BytesWritten()), l)
	}
}

// trainOne sends one round's work to a client and reads back its update,
// retrying transient failures with exponential backoff while the round
// deadline allows. Clients cache their last computed update per round,
// so a re-request after a lost or corrupt frame does not retrain (and
// does not perturb the client's deterministic random stream).
//
// The whole per-client exchange — retries included — is one
// "server.request" span under the round: its labels carry the retry
// count, outcome (with drop reason on failure), negotiated encoding, and
// the measured bytes both ways, and each attempt's latency lands in the
// per-peer histogram. On CapTrace connections the span's context rides
// the request frame so the client's spans parent onto it.
func (s *Server) trainOne(c *clientConn, round int, needDecoder bool, global []float32, deadline time.Time, roundSpan *telemetry.Span) (fl.Update, error) {
	tel := s.cfg.Telemetry
	clientLabel := telemetry.L("client", strconv.Itoa(c.id))
	sp := roundSpan.Child("server.request", clientLabel,
		telemetry.L("encoding", encName(c.enc)))
	retries := 0
	r0, w0 := c.count.BytesRead(), c.count.BytesWritten()
	defer func() {
		sp.SetInt("retries", int64(retries))
		sp.SetInt("bytes_read", c.count.BytesRead()-r0)
		sp.SetInt("bytes_written", c.count.BytesWritten()-w0)
		sp.End()
	}()
	backoff := s.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt > s.cfg.MaxRetries {
				break
			}
			if !deadline.IsZero() && time.Now().Add(backoff).After(deadline) {
				break
			}
			time.Sleep(backoff)
			backoff *= 2
			retries++
			tel.AddCounter("fedguard_net_retries_total", 1)
		}
		attemptStart := time.Now()
		u, err := s.requestOnce(c, round, needDecoder, global, deadline, sp)
		tel.Observe(telemetry.PeerLatencyMetric,
			time.Since(attemptStart).Seconds(), clientLabel)
		if err == nil {
			sp.SetLabel("outcome", "ok")
			return u, nil
		}
		lastErr = err
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			tel.AddCounter("fedguard_net_timeouts_total", 1)
		}
		if !transientErr(err) {
			break
		}
	}
	sp.SetLabel("outcome", "dropped")
	sp.SetLabel("reason", dropReason(lastErr))
	return fl.Update{}, lastErr
}

// encName labels a connection's negotiated wire encoding.
func encName(enc bool) string {
	if enc {
		return "codec"
	}
	return "raw"
}

// requestOnce performs a single request/update exchange under the
// configured deadlines, skipping stale updates left over from earlier
// retried rounds. The request shape follows the connection's negotiated
// encoding: raw TrainRequest/Update, or the compressed variants. On
// CapTrace connections the frame carries reqSpan's context; the span is
// constant across a round's retries (trainOne owns it), so retried
// frames stay byte-identical.
func (s *Server) requestOnce(c *clientConn, round int, needDecoder bool, global []float32, deadline time.Time, reqSpan *telemetry.Span) (fl.Update, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.conn.SetDeadline(s.opDeadline(deadline))
	defer c.conn.SetDeadline(time.Time{})
	var req any
	if c.enc {
		var err error
		if req, err = s.buildRequestC(c, round, needDecoder, global, reqSpan); err != nil {
			return fl.Update{}, err
		}
	} else {
		tr := &wire.TrainRequest{Round: uint32(round), NeedDecoder: needDecoder, Global: global}
		if c.trace {
			tr.Trace = wireTrace(reqSpan.Context())
		}
		req = tr
	}
	if err := c.send(req); err != nil {
		return fl.Update{}, err
	}
	// A retried earlier round can leave its late update in the stream;
	// skip a bounded number of stale frames.
	for skipped := 0; skipped < 4; skipped++ {
		c.conn.SetReadDeadline(s.opDeadline(deadline))
		msg, err := c.recv()
		if err != nil {
			return fl.Update{}, err
		}
		if c.enc {
			u, ok := msg.(*wire.UpdateC)
			if !ok {
				return fl.Update{}, fmt.Errorf("%w: expected UpdateC, got %T", errProtocol, msg)
			}
			if u.Round < uint32(round) {
				continue
			}
			if u.Round != uint32(round) {
				return fl.Update{}, fmt.Errorf("fednet: update for round %d, expected %d", u.Round, round)
			}
			return s.decodeUpdateC(c, u, global)
		}
		u, ok := msg.(*wire.Update)
		if !ok {
			return fl.Update{}, fmt.Errorf("fednet: expected Update, got %T", msg)
		}
		if u.Round < uint32(round) {
			continue
		}
		if u.Round != uint32(round) {
			return fl.Update{}, fmt.Errorf("fednet: update for round %d, expected %d", u.Round, round)
		}
		out := fl.Update{
			ClientID:   int(u.ClientID),
			Weights:    u.Weights,
			NumSamples: int(u.NumSamples),
		}
		if len(u.Decoder) > 0 {
			out.Decoder = u.Decoder
		}
		if len(u.DecoderClasses) > 0 {
			out.DecoderClasses = make([]int, len(u.DecoderClasses))
			for i, v := range u.DecoderClasses {
				out.DecoderClasses[i] = int(v)
			}
		}
		return out, nil
	}
	return fl.Update{}, fmt.Errorf("fednet: too many stale updates from client %d", c.id)
}

// buildRequestC assembles (and caches) the round's compressed broadcast
// for one connection: the global delta-encoded against the last global
// this connection received (ψ₀ on a fresh connection), plus the decoder
// hash the server already holds for this client so the update can dedup.
// Retries of the same round reuse the cached request verbatim — a
// re-encode against a moved base would desynchronize the peer.
// Connections holding the same base share one encoded buffer via
// encodeBroadcast, so the steady-state fan-out encodes once per round.
// Caller holds c.mu.
func (s *Server) buildRequestC(c *clientConn, round int, needDecoder bool, global []float32, reqSpan *telemetry.Span) (*wire.TrainRequestC, error) {
	if c.lastTR != nil && c.lastTR.Round == uint32(round) {
		return c.lastTR, nil
	}
	base := c.baseVec
	baseRound := c.baseRound
	if base == nil {
		base, baseRound = s.initGlobal, 0
	}
	entry, err := s.encodeBroadcast(uint32(round), baseRound, global, base, reqSpan)
	if err != nil {
		return nil, err
	}
	var hash uint64
	s.mu.Lock()
	if e := s.decoders[c.id]; e != nil {
		hash = e.hash
	}
	s.mu.Unlock()
	tr := &wire.TrainRequestC{
		Round:       uint32(round),
		NeedDecoder: needDecoder,
		DecoderHash: hash,
		Encoding:    wire.EncDelta,
		BaseRound:   baseRound,
		NumParams:   uint32(len(global)),
		Payload:     entry.payload,
	}
	if c.trace {
		// Attached once at build time: the cached frame (and thus every
		// retry) carries the identical trace block.
		tr.Trace = wireTrace(reqSpan.Context())
	}
	s.releaseBroadcast(c.lastEntry)
	c.lastEntry = entry
	c.lastTR = tr
	c.baseVec = global
	c.baseRound = uint32(round)
	return tr, nil
}

// encodeBroadcast returns the round's encoded delta against the given
// base, shared by every connection holding that base: the first request
// for a (round, baseRound) key delta-encodes into a pooled buffer under
// s.mu — concurrent requesters for the same key block briefly and reuse
// the result — and later requests just bump the refcount. Fresh or
// rejoined connections (base ψ₀, round 0) share a key the same way.
func (s *Server) encodeBroadcast(round, baseRound uint32, global, base []float32, reqSpan *telemetry.Span) (*bcastEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bcastRound != round {
		// Entries of earlier rounds die with their refcounts; the new
		// round starts a fresh key space.
		s.bcast = make(map[uint32]*bcastEntry)
		s.bcastRound = round
	}
	if e := s.bcast[baseRound]; e != nil {
		e.refs++
		return e, nil
	}
	sp := reqSpan.Child("server.encode_broadcast",
		telemetry.L("base_round", strconv.Itoa(int(baseRound))))
	start := time.Now()
	buf, _ := bcastBufPool.Get().([]byte)
	payload, err := codec.AppendEncodeDelta(buf[:0], global, base)
	if err != nil {
		sp.End()
		return nil, err
	}
	s.bcastEncodes.Add(1)
	sp.SetInt("bytes", int64(len(payload)))
	sp.End()
	s.cfg.Telemetry.Observe(telemetry.BroadcastEncodeMetric, time.Since(start).Seconds())
	e := &bcastEntry{payload: payload, refs: 1}
	s.bcast[baseRound] = e
	return e, nil
}

// releaseBroadcast drops one reference to a shared broadcast buffer,
// recycling it once no cached request uses it. A zero-ref entry is also
// unlinked from the current round's cache so a later requester cannot
// revive a recycled buffer. Safe on nil; callers must not hold s.mu.
func (s *Server) releaseBroadcast(e *bcastEntry) {
	if e == nil {
		return
	}
	s.mu.Lock()
	e.refs--
	free := e.refs == 0
	if free {
		for k, v := range s.bcast {
			if v == e {
				delete(s.bcast, k)
			}
		}
	}
	s.mu.Unlock()
	if free {
		bcastBufPool.Put(e.payload[:0])
	}
}

// decodeUpdateC reverses the client's compressed update: weights are a
// codec blob (usually a delta against this round's broadcast, which the
// server still holds), and the decoder arrives either as bytes (cached
// for future dedup, after verifying the declared hash) or as a
// hash-only token resolved from the cache. Every violation is
// errProtocol — the checksum already passed, so a bad blob is a peer
// bug, not line noise.
func (s *Server) decodeUpdateC(c *clientConn, u *wire.UpdateC, global []float32) (fl.Update, error) {
	if int(u.NumParams) != len(global) {
		return fl.Update{}, fmt.Errorf("%w: update of %d params, model has %d",
			errProtocol, u.NumParams, len(global))
	}
	var weights []float32
	var err error
	switch u.Encoding {
	case wire.EncDelta:
		weights, err = codec.DecodeDelta(u.Weights, global)
	case wire.EncCodec:
		weights, err = codec.Decode(u.Weights, len(global))
		if err == nil && len(weights) != len(global) {
			err = fmt.Errorf("decoded %d params", len(weights))
		}
	default:
		err = fmt.Errorf("unknown encoding %d", u.Encoding)
	}
	if err != nil {
		return fl.Update{}, fmt.Errorf("%w: weights: %v", errProtocol, err)
	}
	out := fl.Update{
		ClientID:   int(u.ClientID),
		Weights:    weights,
		NumSamples: int(u.NumSamples),
	}
	if u.DecoderHash != 0 {
		var dec []float32
		if len(u.Decoder) > 0 {
			if int(u.NumDecoderParams) != s.decoderSize {
				return fl.Update{}, fmt.Errorf("%w: decoder of %d params, expected %d",
					errProtocol, u.NumDecoderParams, s.decoderSize)
			}
			dec, err = codec.Decode(u.Decoder, s.decoderSize)
			if err != nil || len(dec) != s.decoderSize {
				return fl.Update{}, fmt.Errorf("%w: decoder blob: %v", errProtocol, err)
			}
			if codec.Hash(dec) != u.DecoderHash {
				return fl.Update{}, fmt.Errorf("%w: decoder hash mismatch", errProtocol)
			}
			s.mu.Lock()
			// The hash is the decoder's name in the checkpoint directory,
			// where a payload is written once: new floats under a cached
			// hash would leave the live cache and the store disagreeing,
			// and a resumed run diverging from this one. Honest clients
			// never get here — they answer a cached hash with the token.
			if e := s.decoders[c.id]; e != nil && e.hash == u.DecoderHash && !sameBits(e.params, dec) {
				s.mu.Unlock()
				return fl.Update{}, fmt.Errorf("%w: decoder changed under an unchanged hash %016x",
					errProtocol, u.DecoderHash)
			}
			s.decoders[c.id] = &decoderCache{hash: u.DecoderHash, params: dec}
			s.mu.Unlock()
		} else {
			s.mu.Lock()
			entry := s.decoders[c.id]
			s.mu.Unlock()
			if entry == nil || entry.hash != u.DecoderHash {
				return fl.Update{}, fmt.Errorf("%w: decoder token %016x not cached",
					errProtocol, u.DecoderHash)
			}
			dec = entry.params
		}
		out.Decoder = dec
		if len(u.DecoderClasses) > 0 {
			out.DecoderClasses = make([]int, len(u.DecoderClasses))
			for i, v := range u.DecoderClasses {
				out.DecoderClasses[i] = int(v)
			}
		}
	}
	return out, nil
}

// sameBits reports whether two vectors hold the same bit patterns — the
// equality codec.Hash and the checkpoint store are defined over.
func sameBits(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool {
		return math.Float32bits(x) == math.Float32bits(y)
	})
}

// opDeadline combines the per-message IOTimeout with the round deadline
// (whichever comes first; zero means no deadline).
func (s *Server) opDeadline(roundDeadline time.Time) time.Time {
	var d time.Time
	if s.cfg.IOTimeout > 0 {
		d = time.Now().Add(s.cfg.IOTimeout)
	}
	if !roundDeadline.IsZero() && (d.IsZero() || roundDeadline.Before(d)) {
		d = roundDeadline
	}
	return d
}

// deadliner is the optional listener capability used for bounded
// registration waits and the interruptible rejoin accept loop.
type deadliner interface {
	SetDeadline(time.Time) error
}

// acceptPoll is the rejoin loop's accept-deadline granularity.
const acceptPoll = 200 * time.Millisecond

// register accepts connections until every expected client has said
// hello (or, in tolerant mode with RegisterTimeout, until the deadline
// with at least the quorum present), then sends each its setup message.
func (s *Server) register(ln net.Listener) error {
	cfg := s.cfg.Experiment
	tolerant := s.cfg.tolerant()
	var overall time.Time
	if tolerant && s.cfg.RegisterTimeout > 0 {
		overall = time.Now().Add(s.cfg.RegisterTimeout)
	}
	dl, canDeadline := ln.(deadliner)
	s.mu.Lock()
	s.clients = make(map[int]*clientConn, cfg.NumClients)
	s.mu.Unlock()
	registered := 0
	for registered < cfg.NumClients {
		if !overall.IsZero() && canDeadline {
			dl.SetDeadline(overall)
		}
		conn, err := ln.Accept()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && registered >= s.cfg.MinClientsPerRound {
				// Quorum present: start without the missing clients (the
				// rejoin loop keeps listening for them).
				break
			}
			return fmt.Errorf("fednet: accept: %w", err)
		}
		c, err := s.handshake(conn)
		if err != nil {
			conn.Close()
			if tolerant {
				// A broken or hostile registration must not sink the run.
				s.cfg.Telemetry.AddCounter("fedguard_net_bad_registrations_total", 1)
				continue
			}
			return err
		}
		s.mu.Lock()
		if _, dup := s.clients[c.id]; dup {
			s.mu.Unlock()
			conn.Close()
			return fmt.Errorf("fednet: duplicate client ID %d", c.id)
		}
		s.clients[c.id] = c
		s.mu.Unlock()
		registered++
	}
	if canDeadline {
		dl.SetDeadline(time.Time{})
	}
	return nil
}

// handshake reads a Hello from a fresh connection, validates the claimed
// identity, wires up byte accounting, and answers with the client's
// Setup. Shared by initial registration and mid-run rejoins.
func (s *Server) handshake(conn net.Conn) (*clientConn, error) {
	cfg := s.cfg.Experiment
	if s.cfg.tolerant() {
		t := s.cfg.IOTimeout
		if t <= 0 {
			t = 5 * time.Second
		}
		conn.SetDeadline(time.Now().Add(t))
		defer conn.SetDeadline(time.Time{})
	}
	count := wire.NewCountingConn(conn)
	msg, err := wire.ReadMessage(count)
	if err != nil {
		return nil, fmt.Errorf("fednet: registration: %w", err)
	}
	hello, ok := msg.(*wire.Hello)
	if !ok {
		return nil, fmt.Errorf("fednet: expected Hello, got %T", msg)
	}
	id := int(hello.ClientID)
	if id < 0 || id >= cfg.NumClients {
		return nil, fmt.Errorf("fednet: client ID %d out of range", id)
	}
	c := &clientConn{id: id, conn: conn, count: count}
	if tel := s.cfg.Telemetry; tel != nil {
		l := telemetry.L("client", strconv.Itoa(id))
		count.OnClose(func(read, written int64) {
			tel.SetGauge("fedguard_peer_bytes_read", float64(read), l)
			tel.SetGauge("fedguard_peer_bytes_written", float64(written), l)
		})
	}
	setup := s.setupFor(id, s.parts[id], s.malicious[id])
	// Negotiate the compressed encodings: only when this server opts in
	// AND the client advertised the capability. Either side staying
	// silent keeps the connection on raw frames — and a fresh connection
	// always restarts from the ψ₀ delta base, which is what makes rejoin
	// after a drop safe.
	if s.cfg.Compress && hello.Encodings&wire.CapCodec != 0 {
		c.enc = true
		setup.Encodings |= wire.CapCodec
	}
	// Trace-context propagation negotiates the same way: both ends must
	// opt in, and a silent peer keeps legacy frames byte-for-byte.
	if s.cfg.Trace && hello.Encodings&wire.CapTrace != 0 {
		c.trace = true
		setup.Encodings |= wire.CapTrace
	}
	if err := c.send(setup); err != nil {
		return nil, fmt.Errorf("fednet: sending setup to %d: %w", id, err)
	}
	return c, nil
}

// acceptRejoins keeps the listener hot while rounds run, so crashed or
// late clients can re-register: a successful handshake swaps the new
// connection into the registry (closing any stale one) and the client
// participates again from the next round, receiving the current global
// model with its next TrainRequest.
func (s *Server) acceptRejoins(ln net.Listener, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	dl := ln.(deadliner)
	for {
		select {
		case <-stop:
			return
		default:
		}
		dl.SetDeadline(time.Now().Add(acceptPoll))
		conn, err := ln.Accept()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return // listener closed
		}
		c, err := s.handshake(conn)
		if err != nil {
			conn.Close()
			s.cfg.Telemetry.AddCounter("fedguard_net_bad_registrations_total", 1)
			continue
		}
		s.mu.Lock()
		old := s.clients[c.id]
		s.clients[c.id] = c
		s.mu.Unlock()
		if old != nil {
			old.count.Close()
		}
		// A zero-length span makes the rejoin visible on the run's
		// timeline alongside the round spans.
		rj := s.runSpan.Child("client.rejoin", telemetry.L("client", strconv.Itoa(c.id)))
		rj.SetInt("round", s.round.Load())
		rj.End()
		s.cfg.Telemetry.Emit(telemetry.ClientRejoined{
			Round:    int(s.round.Load()),
			ClientID: c.id,
		})
		s.cfg.Telemetry.AddCounter("fedguard_net_rejoins_total", 1)
	}
}

func (s *Server) setupFor(id int, indices []int, isMalicious bool) *wire.Setup {
	cfg := s.cfg.Experiment
	idx := make([]uint32, len(indices))
	for i, v := range indices {
		idx[i] = uint32(v)
	}
	attackName := ""
	if isMalicious {
		attackName = s.cfg.AttackName
	}
	return &wire.Setup{
		Seed:      cfg.Seed,
		DataSeed:  s.cfg.DataSeed,
		TrainSize: uint32(s.cfg.TrainSize),
		Indices:   idx,
		ArchName:  s.cfg.ArchName,
		Epochs:    uint32(cfg.Client.Train.Epochs),
		BatchSize: uint32(cfg.Client.Train.BatchSize),
		LR:        cfg.Client.Train.LR,
		Momentum:  cfg.Client.Train.Momentum,

		CVAEHidden: uint32(cfg.Client.CVAE.Hidden),
		CVAELatent: uint32(cfg.Client.CVAE.Latent),
		CVAEEpochs: uint32(cfg.Client.CVAETrain.Epochs),
		CVAEBatch:  uint32(cfg.Client.CVAETrain.BatchSize),
		CVAELR:     cfg.Client.CVAETrain.LR,
		NumClasses: uint32(cfg.Client.CVAE.Classes),

		Attack:     attackName,
		AttackSeed: rng.DeriveSeed(cfg.Seed, "noise", 0),
	}
}

// RunClient connects to addr, registers as clientID, and serves training
// requests until the server shuts the session down.
func RunClient(addr string, clientID int) error {
	return runClientOnce(addr, clientID, ClientOptions{})
}

func runClientOnce(addr string, clientID int, opts ClientOptions) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("fednet: dial %s: %w", addr, err)
	}
	defer conn.Close()
	return ServeClientOpts(conn, clientID, opts)
}

// ClientOptions tune client-side fault tolerance and wire encoding.
type ClientOptions struct {
	// Redials bounds reconnection attempts after a broken session
	// (0 = fail on the first error, like RunClient).
	Redials int
	// RedialBackoff is the sleep between reconnection attempts
	// (default 250ms).
	RedialBackoff time.Duration
	// Compress advertises the codec capability during registration; the
	// compressed path is used only when the server opts in too, so a
	// compress-on client against a compress-off (or legacy) server just
	// runs raw frames.
	Compress bool
	// Trace advertises the trace-propagation capability (wire.CapTrace).
	// Effective only when the server opts in too AND Telemetry below has
	// tracing enabled; otherwise the client runs legacy frames and local
	// flat timers.
	Trace bool
	// Telemetry, when non-nil, receives the client's phase metrics and —
	// with tracing enabled via EnableTracing — its span tree, parented
	// onto the server's request spans on CapTrace connections. The
	// connection is wrapped for byte accounting so upload spans carry
	// measured byte counts.
	Telemetry *telemetry.T
	// Session, when non-nil, carries the client's deterministic local
	// state (private random stream, trained CVAE decoder, cached round
	// responses) across redials. RunClientResilient supplies one
	// automatically; without it every reconnection rebuilds the client
	// from the seed, which breaks bit-identical resume after a server
	// restart.
	Session *ClientSession
}

// ClientSession preserves a client's state between connections. The
// client object holds the private random stream and CVAE decoder whose
// positions encode every round trained so far; the cached responses
// answer duplicate requests (a resumed server re-asking for a round
// this client already trained) without retraining — retraining would
// advance the stream and diverge from the uninterrupted run.
type ClientSession struct {
	client   *fl.Client
	sig      uint64
	lastRaw  *wire.Update
	lastComp *wire.UpdateC
}

// setupSig fingerprints the deterministic-state-defining fields of a
// Setup message. Encodings is deliberately excluded: renegotiating
// compression or tracing on a redial does not invalidate the client's
// trained state.
func setupSig(s *wire.Setup) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w64 := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	ws := func(v string) { w64(uint64(len(v))); h.Write([]byte(v)) }
	w64(s.Seed)
	w64(s.DataSeed)
	w64(uint64(s.TrainSize))
	w64(uint64(len(s.Indices)))
	for _, v := range s.Indices {
		w64(uint64(v))
	}
	ws(s.ArchName)
	w64(uint64(s.Epochs))
	w64(uint64(s.BatchSize))
	w64(math.Float64bits(s.LR))
	w64(math.Float64bits(s.Momentum))
	w64(uint64(s.CVAEHidden))
	w64(uint64(s.CVAELatent))
	w64(uint64(s.CVAEEpochs))
	w64(uint64(s.CVAEBatch))
	w64(math.Float64bits(s.CVAELR))
	w64(uint64(s.NumClasses))
	ws(s.Attack)
	w64(s.AttackSeed)
	return h.Sum64()
}

// RunClientResilient is RunClient with a reconnect loop: when the
// session breaks (server restart, dropped connection, transient network
// failure), the client redials and re-registers, resuming from whatever
// round the server sends next. A clean Shutdown ends the loop.
func RunClientResilient(addr string, clientID int, opts ClientOptions) error {
	backoff := opts.RedialBackoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	if opts.Session == nil {
		// State must survive redials: a rejoined client that rebuilt its
		// random stream from the seed would repeat early-round draws.
		opts.Session = &ClientSession{}
	}
	err := runClientOnce(addr, clientID, opts)
	for attempt := 0; err != nil && attempt < opts.Redials; attempt++ {
		time.Sleep(backoff)
		err = runClientOnce(addr, clientID, opts)
	}
	return err
}

// ServeClient speaks the client side of the protocol over an existing
// connection (exposed for tests and in-process loopback demos), with
// raw framing.
func ServeClient(conn net.Conn, clientID int) error {
	return ServeClientOpts(conn, clientID, ClientOptions{})
}

// ServeClientOpts is ServeClient with options: when opts.Compress is set
// and the server's Setup confirms the capability, all round traffic uses
// the compressed message types; when opts.Trace (and the server's
// confirmation) is set, round frames carry trace context both ways.
func ServeClientOpts(conn net.Conn, clientID int, opts ClientOptions) error {
	hello := &wire.Hello{ClientID: uint32(clientID)}
	if opts.Compress {
		hello.Encodings |= wire.CapCodec
	}
	if opts.Trace {
		hello.Encodings |= wire.CapTrace
	}
	// With telemetry attached, wrap the stream for byte accounting so
	// upload spans can carry measured byte counts.
	var rw io.ReadWriter = conn
	var count *wire.CountingConn
	if opts.Telemetry != nil {
		count = wire.NewCountingConn(conn)
		rw = count
	}
	if err := wire.WriteMessage(rw, hello); err != nil {
		return err
	}
	msg, err := wire.ReadMessage(rw)
	if err != nil {
		return fmt.Errorf("fednet: reading setup: %w", err)
	}
	setup, ok := msg.(*wire.Setup)
	if !ok {
		return fmt.Errorf("fednet: expected Setup, got %T", msg)
	}

	// Reuse the session's client when its setup matches: the private
	// random stream and trained decoder then carry over from previous
	// connections, so a redial after a server crash resumes mid-stream
	// instead of replaying from the seed. A session seeing this setup
	// shape for the first time (or a changed one) builds fresh.
	sess := opts.Session
	if sess == nil {
		sess = &ClientSession{}
	}
	sig := setupSig(setup)
	client := sess.client
	if client == nil || sess.sig != sig {
		client, err = buildClient(clientID, setup)
		if err != nil {
			return err
		}
		*sess = ClientSession{client: client, sig: sig}
	}
	tel := opts.Telemetry
	client.SetTelemetry(tel)
	if opts.Compress && setup.Encodings&wire.CapCodec != 0 {
		return serveCompressed(rw, clientID, setup, client, sess, tel, count)
	}

	// The last computed update (session-cached, so it survives redials)
	// answers a server re-request for the same round — after a timeout, a
	// corrupt frame, or a crash-and-resume — from cache: retraining would
	// advance the client's private random stream and break the run's
	// determinism. The cached frame includes its original trace context,
	// so retries resend byte-identical frames.
	last := sess.lastRaw
	for {
		msg, err := wire.ReadMessage(rw)
		if err != nil {
			return fmt.Errorf("fednet: client %d read: %w", clientID, err)
		}
		switch m := msg.(type) {
		case *wire.TrainRequest:
			if last != nil && last.Round == m.Round {
				// Duplicate request: answer from cache under a short span
				// labeled as a resend, so retry amplification is visible
				// from the client's side of the trace too.
				sp := tel.StartRemote(spanCtx(m.Trace), "client.round",
					clientRoundLabels(clientID, m.Round, true)...)
				err := wire.WriteMessage(rw, last)
				sp.End()
				if err != nil {
					return fmt.Errorf("fednet: client %d write: %w", clientID, err)
				}
				continue
			}
			// The round span parents onto the server's request span when
			// the frame carries trace context (StartRemote degrades to a
			// local root otherwise).
			sp := tel.StartRemote(spanCtx(m.Trace), "client.round",
				clientRoundLabels(clientID, m.Round, false)...)
			u := client.RunRoundSpan(m.Global, m.NeedDecoder, sp)
			resp := &wire.Update{
				Round:      m.Round,
				ClientID:   uint32(u.ClientID),
				NumSamples: uint32(u.NumSamples),
				Weights:    u.Weights,
				Decoder:    u.Decoder,
			}
			if len(u.DecoderClasses) > 0 {
				resp.DecoderClasses = make([]uint32, len(u.DecoderClasses))
				for i, v := range u.DecoderClasses {
					resp.DecoderClasses[i] = uint32(v)
				}
			}
			resp.Trace = wireTrace(sp.Context())
			last = resp
			sess.lastRaw = resp
			err := uploadSpanned(rw, resp, sp, count)
			sp.End()
			if err != nil {
				return fmt.Errorf("fednet: client %d write: %w", clientID, err)
			}
		case *wire.Shutdown:
			return nil
		default:
			return fmt.Errorf("fednet: client %d: unexpected %T", clientID, msg)
		}
	}
}

// spanCtx converts a wire trace block into a span context.
func spanCtx(t wire.Trace) telemetry.SpanContext {
	return telemetry.SpanContext{TraceID: t.TraceID, SpanID: t.SpanID}
}

// wireTrace is the inverse of spanCtx (zero context → zero block → no
// bytes on the wire).
func wireTrace(c telemetry.SpanContext) wire.Trace {
	return wire.Trace{TraceID: c.TraceID, SpanID: c.SpanID}
}

// clientRoundLabels builds the standard client.round span labels.
func clientRoundLabels(clientID int, round uint32, resend bool) []telemetry.Label {
	labels := []telemetry.Label{
		telemetry.L("client", strconv.Itoa(clientID)),
		telemetry.L("round", strconv.Itoa(int(round))),
	}
	if resend {
		labels = append(labels, telemetry.L("resend", "true"))
	}
	return labels
}

// uploadSpanned writes one update frame under a "client.upload" child
// span carrying the measured byte count when accounting is available.
func uploadSpanned(w io.Writer, msg any, parent *telemetry.Span, count *wire.CountingConn) error {
	up := parent.Child("client.upload")
	var w0 int64
	if count != nil {
		w0 = count.BytesWritten()
	}
	err := wire.WriteMessage(w, msg)
	if count != nil {
		up.SetInt("bytes", count.BytesWritten()-w0)
	}
	up.End()
	return err
}

// serveCompressed is the client round loop over the negotiated codec
// encodings. The client mirrors the server's per-connection reference
// state: it starts from the locally derived ψ₀ and advances its delta
// base exactly once per distinct round — a duplicate request (the
// server retrying after a timeout or corrupt frame, or a resumed server
// re-asking for a round trained before a redial) is answered from the
// session-cached response without retraining, so the random stream
// never moves twice for one round.
func serveCompressed(rw io.ReadWriter, clientID int, setup *wire.Setup, client *fl.Client, sess *ClientSession, tel *telemetry.T, count *wire.CountingConn) error {
	arch, err := classifier.ByName(setup.ArchName)
	if err != nil {
		return err
	}
	base := fl.InitialGlobalFrom(arch, setup.Seed) // ψ₀, round 0
	baseRound := uint32(0)
	last := sess.lastComp
	for {
		msg, err := wire.ReadMessage(rw)
		if err != nil {
			return fmt.Errorf("fednet: client %d read: %w", clientID, err)
		}
		switch m := msg.(type) {
		case *wire.TrainRequestC:
			if last != nil && last.Round == m.Round {
				sp := tel.StartRemote(spanCtx(m.Trace), "client.round",
					clientRoundLabels(clientID, m.Round, true)...)
				// A same-connection retry already advanced our base when the
				// round was first handled (baseRound == m.Round): resend as
				// is. A cross-connection duplicate — a resumed server
				// re-requesting a round trained before the redial — still
				// has to decode the broadcast, because it advances this
				// connection's delta base to the round's global, which the
				// server's next request will delta against.
				if baseRound != m.Round {
					var global []float32
					switch m.Encoding {
					case wire.EncDelta:
						if m.BaseRound != baseRound {
							sp.End()
							return fmt.Errorf("fednet: client %d: delta base round %d, holding %d",
								clientID, m.BaseRound, baseRound)
						}
						global, err = codec.DecodeDelta(m.Payload, base)
					case wire.EncCodec:
						global, err = codec.Decode(m.Payload, int(m.NumParams))
					default:
						err = fmt.Errorf("unknown encoding %d", m.Encoding)
					}
					if err == nil && len(global) != int(m.NumParams) {
						err = fmt.Errorf("decoded %d params, header says %d", len(global), m.NumParams)
					}
					if err != nil {
						sp.End()
						return fmt.Errorf("fednet: client %d broadcast: %w", clientID, err)
					}
					base, baseRound = global, m.Round
				}
				err := wire.WriteMessage(rw, last)
				sp.End()
				if err != nil {
					return fmt.Errorf("fednet: client %d write: %w", clientID, err)
				}
				continue
			}
			sp := tel.StartRemote(spanCtx(m.Trace), "client.round",
				clientRoundLabels(clientID, m.Round, false)...)
			_, stopDecode := tel.StartPhase(sp, "client.decode")
			var global []float32
			switch m.Encoding {
			case wire.EncDelta:
				if m.BaseRound != baseRound {
					return fmt.Errorf("fednet: client %d: delta base round %d, holding %d",
						clientID, m.BaseRound, baseRound)
				}
				global, err = codec.DecodeDelta(m.Payload, base)
			case wire.EncCodec:
				global, err = codec.Decode(m.Payload, int(m.NumParams))
			default:
				err = fmt.Errorf("unknown encoding %d", m.Encoding)
			}
			if err == nil && len(global) != int(m.NumParams) {
				err = fmt.Errorf("decoded %d params, header says %d", len(global), m.NumParams)
			}
			stopDecode()
			if err != nil {
				return fmt.Errorf("fednet: client %d broadcast: %w", clientID, err)
			}

			u := client.RunRoundSpan(global, m.NeedDecoder, sp)
			_, stopEncode := tel.StartPhase(sp, "client.encode")
			blob, err := codec.EncodeDelta(u.Weights, global)
			if err != nil {
				return fmt.Errorf("fednet: client %d encode: %w", clientID, err)
			}
			resp := &wire.UpdateC{
				Round:      m.Round,
				ClientID:   uint32(u.ClientID),
				NumSamples: uint32(u.NumSamples),
				Encoding:   wire.EncDelta,
				NumParams:  uint32(len(u.Weights)),
				Weights:    blob,
			}
			if len(u.Decoder) > 0 {
				h := codec.Hash(u.Decoder)
				resp.DecoderHash = h
				// Dedup: attach decoder bytes only when the server's cache
				// (advertised in the request) is stale or absent.
				if h != m.DecoderHash {
					resp.NumDecoderParams = uint32(len(u.Decoder))
					resp.Decoder = codec.Encode(u.Decoder)
				}
				if len(u.DecoderClasses) > 0 {
					resp.DecoderClasses = make([]uint32, len(u.DecoderClasses))
					for i, v := range u.DecoderClasses {
						resp.DecoderClasses[i] = uint32(v)
					}
				}
			}
			stopEncode()
			resp.Trace = wireTrace(sp.Context())
			base, baseRound = global, m.Round
			last = resp
			sess.lastComp = resp
			err = uploadSpanned(rw, resp, sp, count)
			sp.End()
			if err != nil {
				return fmt.Errorf("fednet: client %d write: %w", clientID, err)
			}
		case *wire.Shutdown:
			return nil
		default:
			return fmt.Errorf("fednet: client %d: unexpected %T", clientID, msg)
		}
	}
}

// buildClient reconstructs the deterministic local state an in-process
// federation would have given this client, holding only what the client
// uses of it: the training set is walked in full (every sample comes off
// one sequential stream) but only the partition is rendered and kept, as
// a compact dataset the client indexes 0..len-1. Nothing downstream reads
// an index's value, only the example it points at, so the updates are the
// in-process client's byte for byte. Indices the training set does not
// have, or has once and the Setup lists twice, are an error.
func buildClient(id int, setup *wire.Setup) (*fl.Client, error) {
	arch, err := classifier.ByName(setup.ArchName)
	if err != nil {
		return nil, err
	}
	att, err := NewAttackByName(setup.Attack, setup.AttackSeed)
	if err != nil {
		return nil, err
	}
	indices := make([]int, len(setup.Indices))
	for i, v := range setup.Indices {
		indices[i] = int(v)
	}
	train, err := dataset.GenerateSubset(int(setup.TrainSize), dataset.DefaultGenOptions(), rng.New(setup.DataSeed), indices)
	if err != nil {
		return nil, fmt.Errorf("fednet: client %d setup: %w", id, err)
	}
	clientCfg := fl.ClientConfig{
		Arch: arch,
		Train: classifier.TrainConfig{
			Epochs:    int(setup.Epochs),
			BatchSize: int(setup.BatchSize),
			LR:        setup.LR,
			Momentum:  setup.Momentum,
		},
		CVAE: cvae.Config{
			Input:   dataset.ImageH * dataset.ImageW,
			Hidden:  int(setup.CVAEHidden),
			Latent:  int(setup.CVAELatent),
			Classes: int(setup.NumClasses),
		},
		CVAETrain: cvae.TrainConfig{
			Epochs:    int(setup.CVAEEpochs),
			BatchSize: int(setup.CVAEBatch),
			LR:        setup.CVAELR,
		},
		NumClasses: int(setup.NumClasses),
	}
	stream := rng.New(rng.DeriveSeed(setup.Seed, "client", uint64(id)))
	return fl.NewClient(id, train, dataset.Range(train.Len()), clientCfg, att, stream), nil
}
