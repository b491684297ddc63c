package fednet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"strconv"
	"sync"
	"time"

	"fedguard/internal/attack"
	"fedguard/internal/fl"
	"fedguard/internal/telemetry"
	"fedguard/internal/wire"
)

// This file is the two ends of a connection's life outside the rounds:
// the server's registration handshake (initial and mid-run rejoins) and
// the client-side session that carries a participant's deterministic
// state from one connection to the next.

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
				s.refuse(err)
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
			s.refuse(err)
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
	}
}

// refuse records a registration the tolerant server turned away.
func (s *Server) refuse(err error) {
	s.cfg.Telemetry.Emit(telemetry.RegistrationRefused{Round: int(s.round.Load()), Err: err.Error()})
}

func (s *Server) setupFor(id int, indices []int, isMalicious bool) *wire.Setup {
	cfg := s.cfg.Experiment
	attackName := ""
	if isMalicious {
		attackName = s.cfg.AttackName
	}
	return &wire.Setup{
		Seed:      cfg.Seed,
		DataSeed:  s.cfg.DataSeed,
		TrainSize: uint32(s.cfg.TrainSize),
		Indices:   castInts[uint32](indices),
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
		AttackSeed: attack.CollusionSeed(cfg.Seed),
	}
}

// castInts converts between the in-memory int and on-wire uint32 forms
// of class lists and partition indices (empty in, nil out).
func castInts[To, From interface{ ~int | ~uint32 }](in []From) []To {
	if len(in) == 0 {
		return nil
	}
	out := make([]To, len(in))
	for i, v := range in {
		out[i] = To(v)
	}
	return out
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

// clientSession preserves a client's state between connections. The
// client object holds the private random stream and CVAE decoder whose
// positions encode every round trained so far; the last trained round
// answers a duplicate request (a server retrying after a timeout or a
// corrupt frame, or a resumed server re-asking for a round this client
// already trained) without retraining — retraining would advance the
// stream and diverge from the uninterrupted run. What is kept is the
// update itself, not a frame of it, so the answer is there whichever
// dialect the connection asking for it negotiated.
type clientSession struct {
	client *fl.Client
	sig    uint64
	last   trainedRound // round 0 until one is trained: rounds are 1-based
}

// trainedRound is a round's update as the client computed it, with the
// context of the client.round span that did — re-framed for a duplicate
// request, it yields the bytes of the first answer.
type trainedRound struct {
	round  uint32
	update fl.Update
	trace  wire.Trace
}

// setupSig fingerprints a Setup by its frame, every field the client's
// deterministic state is built from. Encodings is left out:
// renegotiating compression or tracing on a redial does not invalidate
// the trained state.
func setupSig(s *wire.Setup) uint64 {
	c := *s
	c.Encodings = 0
	h := fnv.New64a()
	wire.WriteMessage(h, &c) // a hash's Write cannot fail
	return h.Sum64()
}
