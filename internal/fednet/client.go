package fednet

import (
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"fedguard/internal/attack"
	"fedguard/internal/classifier"
	"fedguard/internal/codec"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/fl"
	"fedguard/internal/rng"
	"fedguard/internal/telemetry"
	"fedguard/internal/wire"
)

// ClientOptions tune client-side fault tolerance and wire encoding.
type ClientOptions struct {
	// Redials bounds RunClient's reconnection attempts after a broken
	// session (0 = fail on the first error).
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
	// Once the server opts in too, round frames carry trace context both
	// ways; a server that does not keeps the connection on legacy frames.
	Trace bool
	// Telemetry, when non-nil and with tracing enabled via
	// EnableTracing, receives the client's span tree, parented onto the
	// server's request spans on CapTrace connections. A traced
	// connection is wrapped for byte accounting so upload spans carry
	// measured byte counts.
	Telemetry *telemetry.T
}

// RunClient dials addr, registers as clientID and serves training
// requests until the server shuts the session down. When the session
// breaks (server restart, dropped connection, transient network failure)
// it redials and re-registers up to opts.Redials times, resuming from
// whatever round the server sends next with the state of every round
// trained so far.
func RunClient(addr string, clientID int, opts ClientOptions) error {
	backoff := opts.RedialBackoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	// State must survive redials: a rejoined client that rebuilt its
	// random stream from the seed would repeat early-round draws.
	sess := &clientSession{}
	for attempt := 0; ; attempt++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			err = fmt.Errorf("fednet: dial %s: %w", addr, err)
		} else {
			err = serveClient(conn, clientID, opts, sess)
			conn.Close()
		}
		if err == nil || attempt >= opts.Redials {
			return err
		}
		time.Sleep(backoff)
	}
}

// ServeClientOpts speaks the client side of the protocol over an
// existing connection: register, rebuild the participant's local state
// from the Setup, then serve rounds in the dialect the handshake settled
// on. When opts.Compress is set and the server's Setup confirms the
// capability, round traffic uses the compressed message types; when
// opts.Trace (and the server's confirmation) is set, round frames carry
// trace context both ways.
func ServeClientOpts(conn net.Conn, clientID int, opts ClientOptions) error {
	return serveClient(conn, clientID, opts, &clientSession{})
}

// serveClient is ServeClientOpts over a session that may already hold
// this participant's state from an earlier connection.
func serveClient(conn net.Conn, clientID int, opts ClientOptions, sess *clientSession) error {
	hello := &wire.Hello{ClientID: uint32(clientID)}
	if opts.Compress {
		hello.Encodings |= wire.CapCodec
	}
	if opts.Trace {
		hello.Encodings |= wire.CapTrace
	}
	// With tracing on, wrap the stream for byte accounting so upload
	// spans can carry measured byte counts; nothing else reads them.
	tel := opts.Telemetry
	var rw io.ReadWriter = conn
	var count *wire.CountingConn
	if tel != nil && tel.Tracer != nil {
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
	if sig := setupSig(setup); sess.client == nil || sess.sig != sig {
		client, err := buildClient(clientID, setup)
		if err != nil {
			return err
		}
		*sess = clientSession{client: client, sig: sig}
	}

	var d dialect = rawDialect{}
	if opts.Compress && setup.Encodings&wire.CapCodec != 0 {
		arch, err := classifier.ByName(setup.ArchName)
		if err != nil {
			return err
		}
		// A fresh connection's delta base is ψ₀, which both ends derive
		// from the seed.
		d = &codecDialect{base: fl.InitialGlobalFrom(arch, setup.Seed)}
	}
	for {
		msg, err := wire.ReadMessage(rw)
		if err != nil {
			return fmt.Errorf("fednet: client %d read: %w", clientID, err)
		}
		if _, ok := msg.(*wire.Shutdown); ok {
			return nil
		}
		if err := serveRound(rw, count, msg, clientID, sess, d, tel); err != nil {
			return err
		}
	}
}

// roundRequest is what a round request asks, whichever frame asked it.
// decoderHash names the decoder the server already holds for this client
// (0 = none, and always on raw frames).
type roundRequest struct {
	needDecoder bool
	global      []float32
	decoderHash uint64
}

// dialect is a connection's negotiated framing, the one thing the round
// loop does not know: how a request frame becomes a roundRequest and how
// a trained round becomes an update frame. sp is the round's span, for
// the dialect's own phases.
type dialect interface {
	request(msg any, sp *telemetry.Span) (roundRequest, error)
	update(req roundRequest, t *trainedRound, sp *telemetry.Span) (any, error)
}

// serveRound answers one round request: decode it, check it against the
// architecture, train, frame the update, upload it. A duplicate request
// (the server retrying after a timeout or a corrupt frame, or a resumed
// server re-asking for a round trained before a redial) is answered from
// the round the session kept:
// retraining would advance the client's private random stream and break
// the run's determinism. It is still decoded — on a new connection that
// is what moves the codec's delta base — and re-framed from the kept
// update and trace context, so a retry carries the first answer's bytes.
func serveRound(rw io.ReadWriter, count *wire.CountingConn, msg any, clientID int, sess *clientSession, d dialect, tel *telemetry.T) error {
	var round uint32
	var trace wire.Trace
	switch m := msg.(type) {
	case *wire.TrainRequest:
		round, trace = m.Round, m.Trace
	case *wire.TrainRequestC:
		round, trace = m.Round, m.Trace
	default:
		return fmt.Errorf("fednet: client %d: unexpected %T", clientID, msg)
	}
	resend := round != 0 && sess.last.round == round
	// The span parents onto the server's request span when the frame
	// carries trace context (StartRemote degrades to a local root
	// otherwise); resends are labeled, so retry amplification shows from
	// the client's side of the trace too.
	sp := tel.StartRemote(spanCtx(trace), "client.round", clientRoundLabels(clientID, round, resend)...)
	defer sp.End()
	req, err := d.request(msg, sp)
	if err == nil {
		// Checked before anything is borrowed: the vector is the peer's,
		// the architecture is what its Setup named.
		if want := sess.client.NumParams(); len(req.global) != want {
			err = fmt.Errorf("global of %d parameters, the architecture has %d", len(req.global), want)
		}
	}
	if err != nil {
		return fmt.Errorf("fednet: client %d broadcast: %w", clientID, err)
	}
	if !resend {
		u := sess.client.RunRoundSpan(req.global, req.needDecoder, sp)
		sess.last = trainedRound{round: round, update: u, trace: wireTrace(sp.Context())}
	}
	frame, err := d.update(req, &sess.last, sp)
	if err != nil {
		return fmt.Errorf("fednet: client %d encode: %w", clientID, err)
	}
	if resend {
		err = wire.WriteMessage(rw, frame)
	} else {
		err = uploadSpanned(rw, frame, sp, count)
	}
	if err != nil {
		return fmt.Errorf("fednet: client %d write: %w", clientID, err)
	}
	return nil
}

// rawDialect is the 4 B/param framing: globals, weights and decoders
// travel as they are.
type rawDialect struct{}

func (rawDialect) request(msg any, _ *telemetry.Span) (roundRequest, error) {
	m, ok := msg.(*wire.TrainRequest)
	if !ok {
		return roundRequest{}, fmt.Errorf("unexpected %T on a raw connection", msg)
	}
	return roundRequest{needDecoder: m.NeedDecoder, global: m.Global}, nil
}

func (rawDialect) update(_ roundRequest, t *trainedRound, _ *telemetry.Span) (any, error) {
	u := t.update
	return &wire.Update{
		Round:          t.round,
		ClientID:       uint32(u.ClientID),
		NumSamples:     uint32(u.NumSamples),
		Weights:        u.Weights,
		Decoder:        u.Decoder,
		DecoderClasses: castInts[uint32](u.DecoderClasses),
		Trace:          t.trace,
	}, nil
}

// codecDialect is the compressed framing. It mirrors the server's
// per-connection reference state: base is the last global this
// connection decoded (ψ₀ on a fresh one) and advances exactly once per
// distinct round, so both ends agree on what the next broadcast is a
// delta against.
type codecDialect struct {
	base      []float32
	baseRound uint32
}

func (d *codecDialect) request(msg any, sp *telemetry.Span) (roundRequest, error) {
	m, ok := msg.(*wire.TrainRequestC)
	if !ok {
		return roundRequest{}, fmt.Errorf("unexpected %T on a codec connection", msg)
	}
	// A same-connection retry finds the base already at this round's
	// global: the first delivery moved it there.
	if d.baseRound != m.Round {
		decode := sp.Child("client.decode")
		var global []float32
		var err error
		switch {
		case m.Encoding == wire.EncCodec:
			global, err = codec.Decode(m.Payload, int(m.NumParams))
		case m.Encoding != wire.EncDelta:
			err = fmt.Errorf("unknown encoding %d", m.Encoding)
		case m.BaseRound != d.baseRound:
			err = fmt.Errorf("delta base round %d, holding %d", m.BaseRound, d.baseRound)
		default:
			global, err = codec.DecodeDelta(m.Payload, d.base)
		}
		if err == nil && len(global) != int(m.NumParams) {
			err = fmt.Errorf("decoded %d params, header says %d", len(global), m.NumParams)
		}
		decode.End()
		if err != nil {
			return roundRequest{}, err
		}
		d.base, d.baseRound = global, m.Round
	}
	return roundRequest{needDecoder: m.NeedDecoder, global: d.base, decoderHash: m.DecoderHash}, nil
}

func (d *codecDialect) update(req roundRequest, t *trainedRound, sp *telemetry.Span) (any, error) {
	defer sp.Child("client.encode").End()
	u := t.update
	blob, err := codec.EncodeDelta(u.Weights, req.global)
	if err != nil {
		return nil, err
	}
	resp := &wire.UpdateC{
		Round:      t.round,
		ClientID:   uint32(u.ClientID),
		NumSamples: uint32(u.NumSamples),
		Encoding:   wire.EncDelta,
		NumParams:  uint32(len(u.Weights)),
		Weights:    blob,
		Trace:      t.trace,
	}
	if len(u.Decoder) > 0 {
		resp.DecoderHash = codec.Hash(u.Decoder)
		// Dedup: attach decoder bytes only when the server's cache
		// (advertised in the request) is stale or absent.
		if resp.DecoderHash != req.decoderHash {
			resp.NumDecoderParams = uint32(len(u.Decoder))
			resp.Decoder = codec.Encode(u.Decoder)
		}
		resp.DecoderClasses = castInts[uint32](u.DecoderClasses)
	}
	return resp, nil
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
	workers, err := sharedWorkers(setup.ArchName)
	if err != nil {
		return nil, err
	}
	att, err := attack.ByName(setup.Attack, setup.AttackSeed)
	if err != nil {
		return nil, err
	}
	train, err := dataset.GenerateSubset(int(setup.TrainSize), dataset.DefaultGenOptions(),
		rng.New(setup.DataSeed), castInts[int](setup.Indices))
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
	stream := rng.New(fl.ClientRNGSeed(setup.Seed, id))
	client := fl.NewClient(id, train, dataset.Range(train.Len()), clientCfg, att, stream)
	client.UseWorkers(workers)
	return client, nil
}

// workerSets holds this process's classifier workers, one set per
// architecture name, sized by the tensor pool's width: however many
// clients (and a server beside them) a process runs, they run their
// rounds and evaluate on these models, at most that many at a time. A
// process with one client builds one.
var workerSets struct {
	sync.Mutex
	byArch map[string]*classifier.Set
}

// sharedWorkers returns the process's worker set for the named
// architecture, created (empty) on first use.
func sharedWorkers(archName string) (*classifier.Set, error) {
	workerSets.Lock()
	defer workerSets.Unlock()
	if set := workerSets.byArch[archName]; set != nil {
		return set, nil
	}
	arch, err := classifier.ByName(archName)
	if err != nil {
		return nil, err
	}
	if workerSets.byArch == nil {
		workerSets.byArch = map[string]*classifier.Set{}
	}
	set := classifier.NewSet(arch)
	workerSets.byArch[archName] = set
	return set, nil
}
