package fednet

import (
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"fedguard/internal/codec"
	"fedguard/internal/fl"
	"fedguard/internal/telemetry"
	"fedguard/internal/wire"
)

// Train implements fl.Cohort around trainRound. After Kill the round
// does not start, and a round that failed on the server's own severed
// connections is not a failed round: both are ErrKilled.
func (s *Server) Train(round int, sampled []int, global []float32, needDecoders bool, submit func(int, fl.Update) bool, roundSpan *telemetry.Span) ([]fl.Update, []int, error) {
	if s.killed() {
		return nil, nil, ErrKilled
	}
	s.round.Store(int64(round))
	updates, dropped, err := s.trainRound(round, sampled, global, needDecoders, submit, roundSpan)
	if err != nil && s.killed() {
		return nil, nil, ErrKilled
	}
	return updates, dropped, err
}

// trainRound fans one round's work out to the sampled clients and
// collects the responsive updates in sampled order. In tolerant mode,
// failing clients are dropped (telemetry + connection teardown) and the
// round proceeds as long as the quorum holds — counted on the updates the
// engine admitted, since it takes a refused one out of the round; in
// strict mode any failure aborts. Each decoded update goes to submit at
// its sampled slot the moment it arrives, so a streaming strategy's audit
// overlaps the remaining uploads; slots line up with the compacted
// updates slice only on drop-free rounds, which is exactly when the
// stream's fast path is valid (Finalize detects the mismatch otherwise
// and falls back). A decoder that arrived in full enters the dedup cache
// — and so the checkpoint — only once submit admitted its update.
func (s *Server) trainRound(round int, sampled []int, global []float32, needDecoders bool, submit func(int, fl.Update) bool, roundSpan *telemetry.Span) ([]fl.Update, []int, error) {
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
	admitted := make([]bool, len(sampled))
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
			var fresh *decoderCache
			results[i], fresh, errs[i] = s.trainOne(conns[i], round, needDecoders, global, deadline, roundSpan)
			if errs[i] != nil {
				return
			}
			if admitted[i] = submit(i, results[i]); admitted[i] && fresh != nil {
				s.mu.Lock()
				s.decoders[conns[i].id] = fresh
				s.mu.Unlock()
			}
		}(i)
	}
	wg.Wait()

	updates := make([]fl.Update, 0, len(sampled))
	var dropped []int
	quorum := 0 // admitted updates
	for i, err := range errs {
		if err == nil {
			updates = append(updates, results[i])
			if admitted[i] {
				quorum++
			}
			continue
		}
		if !s.cfg.tolerant() {
			return nil, nil, fmt.Errorf("fednet: round %d client %d: %w", round, sampled[i], err)
		}
		dropped = append(dropped, sampled[i])
		s.dropClient(round, sampled[i], conns[i], err)
	}
	if s.cfg.tolerant() && quorum < s.cfg.MinClientsPerRound {
		return nil, nil, fmt.Errorf("fednet: round %d: %d admitted updates from %d responsive clients, quorum is %d",
			round, quorum, len(updates), s.cfg.MinClientsPerRound)
	}
	if len(dropped) > 0 {
		s.cfg.Telemetry.Emit(telemetry.RoundDegraded{
			Round:      round,
			Sampled:    len(sampled),
			Responsive: len(updates),
			Dropped:    dropped,
		})
	}
	return updates, dropped, nil
}

// dropClient abandons id's connection for this round: it is removed from
// the registry (unless a rejoin already replaced it), closed, and the
// drop is published as a ClientDropped event with its reason.
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
	s.cfg.Telemetry.Emit(telemetry.ClientDropped{Round: round, ClientID: id, Reason: dropReason(cause)})
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

// retryBackoff is the sleep before a client's first re-request in a
// round; it doubles with each further attempt.
const retryBackoff = 25 * time.Millisecond

// trainOne sends one round's work to a client and reads back its update,
// retrying transient failures with exponential backoff while the round
// deadline allows. Clients cache their last computed update per round,
// so a re-request after a lost or corrupt frame does not retrain (and
// does not perturb the client's deterministic random stream).
//
// The whole per-client exchange — retries included — is one
// "server.request" span under the round: its duration is the peer's
// latency, and its labels carry the retry and timeout counts, outcome
// (with drop reason on failure), negotiated encoding, and the measured
// bytes both ways. On CapTrace connections the span's context rides the
// request frame so the client's spans parent onto it.
func (s *Server) trainOne(c *clientConn, round int, needDecoder bool, global []float32, deadline time.Time, roundSpan *telemetry.Span) (fl.Update, *decoderCache, error) {
	sp := roundSpan.Child("server.request", telemetry.L("client", strconv.Itoa(c.id)),
		telemetry.L("encoding", encName(c.enc)))
	retries, timeouts := 0, 0
	r0, w0 := c.count.BytesRead(), c.count.BytesWritten()
	defer func() {
		sp.SetInt("retries", int64(retries))
		sp.SetInt("timeouts", int64(timeouts))
		sp.SetInt("bytes_read", c.count.BytesRead()-r0)
		sp.SetInt("bytes_written", c.count.BytesWritten()-w0)
		sp.End()
	}()
	backoff := retryBackoff
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
		}
		u, fresh, err := s.requestOnce(c, round, needDecoder, global, deadline, sp)
		if err == nil {
			sp.SetLabel("outcome", "ok")
			return u, fresh, nil
		}
		lastErr = err
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			timeouts++
		}
		if !transientErr(err) {
			break
		}
	}
	sp.SetLabel("outcome", "dropped")
	sp.SetLabel("reason", dropReason(lastErr))
	return fl.Update{}, nil, lastErr
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
// retried rounds. The frames follow the connection's negotiated dialect;
// what comes back becomes an fl.Update in toUpdate and nowhere else. On
// CapTrace connections the request carries reqSpan's context; the span
// is constant across a round's retries (trainOne owns it), so retried
// frames stay byte-identical.
func (s *Server) requestOnce(c *clientConn, round int, needDecoder bool, global []float32, deadline time.Time, reqSpan *telemetry.Span) (fl.Update, *decoderCache, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.conn.SetDeadline(s.opDeadline(deadline))
	defer c.conn.SetDeadline(time.Time{})
	req, err := s.buildRequest(c, round, needDecoder, global, reqSpan)
	if err != nil {
		return fl.Update{}, nil, err
	}
	if err := c.send(req); err != nil {
		return fl.Update{}, nil, err
	}
	// A retried earlier round can leave its late update in the stream;
	// skip a bounded number of stale frames.
	for skipped := 0; skipped < 4; skipped++ {
		c.conn.SetReadDeadline(s.opDeadline(deadline))
		msg, err := c.recv()
		if err != nil {
			return fl.Update{}, nil, err
		}
		got, ok := updateRound(msg, c.enc)
		if !ok {
			return fl.Update{}, nil, fmt.Errorf("%w: %T on a %s connection", errProtocol, msg, encName(c.enc))
		}
		if got < uint32(round) {
			continue
		}
		if got != uint32(round) {
			return fl.Update{}, nil, fmt.Errorf("fednet: update for round %d, expected %d", got, round)
		}
		return s.toUpdate(c, msg, needDecoder, global)
	}
	return fl.Update{}, nil, fmt.Errorf("fednet: too many stale updates from client %d", c.id)
}

// updateRound reads the round off an update frame of the connection's
// negotiated dialect; any other frame is not ok.
func updateRound(msg any, enc bool) (round uint32, ok bool) {
	switch m := msg.(type) {
	case *wire.Update:
		return m.Round, !enc
	case *wire.UpdateC:
		return m.Round, enc
	}
	return 0, false
}

// toUpdate is the server's update edge: the one place a received frame,
// of either dialect, becomes the fl.Update the round engine sees, and so
// the one place its shape is held against what the server knows. The
// update must be filed under the identity the connection registered with
// (exclusion records and detection statistics are keyed on it), carry
// exactly the model's parameter count — the decoded payload's, whatever
// a frame header says — and attach a decoder exactly when the round
// asked for one, of the configured CVAE's size. A violation is
// errProtocol — the frame passed its checksum, so it is the peer's
// doing, not line noise: a drop in tolerant mode, an error naming the
// client in strict mode. The frame's sample count is ignored for the
// partition the server drew, and values are the round engine's to admit.
// A decoder that arrived in full over the codec dialect comes back as the
// dedup-cache entry it makes, for trainRound to file once the engine has
// admitted the update; the edge itself caches nothing.
func (s *Server) toUpdate(c *clientConn, msg any, needDecoder bool, global []float32) (fl.Update, *decoderCache, error) {
	var (
		id               uint32
		weights, decoder []float32
		classes          []uint32
		fresh            uint64 // hash of a decoder that arrived in full over the codec dialect
	)
	switch m := msg.(type) {
	case *wire.Update:
		id, weights, decoder, classes = m.ClientID, m.Weights, m.Decoder, m.DecoderClasses
	case *wire.UpdateC:
		var err error
		if weights, decoder, err = s.decodeUpdateC(c, m, global); err != nil {
			return fl.Update{}, nil, err
		}
		id, classes = m.ClientID, m.DecoderClasses
		if len(m.Decoder) > 0 {
			fresh = m.DecoderHash
		}
	default:
		return fl.Update{}, nil, fmt.Errorf("%w: %T is not an update", errProtocol, msg)
	}
	switch {
	case int(id) != c.id:
		return fl.Update{}, nil, fmt.Errorf("%w: update filed under client %d on client %d's connection",
			errProtocol, id, c.id)
	case len(weights) != len(global):
		return fl.Update{}, nil, fmt.Errorf("%w: update of %d params, model has %d",
			errProtocol, len(weights), len(global))
	case len(decoder) > 0 && !needDecoder:
		return fl.Update{}, nil, fmt.Errorf("%w: decoder attached to a round that asked for none", errProtocol)
	case needDecoder && len(decoder) != s.decoderSize:
		return fl.Update{}, nil, fmt.Errorf("%w: decoder of %d params, expected %d",
			errProtocol, len(decoder), s.decoderSize)
	}
	out := fl.Update{ClientID: c.id, Weights: weights, NumSamples: len(s.parts[c.id])}
	var entry *decoderCache
	if len(decoder) > 0 {
		out.Decoder = decoder
		out.DecoderClasses = castInts[int](classes)
		if fresh != 0 {
			entry = &decoderCache{hash: fresh, params: decoder}
		}
	}
	return out, entry, nil
}

// decodeUpdateC reverses the codec dialect's payloads: weights are a
// codec blob (usually a delta against this round's broadcast, which the
// server still holds), and the decoder arrives either as bytes (verified
// against the declared hash) or as a hash-only token resolved from the
// dedup cache. Both decodes are capped at the size the server expects,
// so a hostile blob cannot demand more; whether what came out is the
// right size is toUpdate's question.
func (s *Server) decodeUpdateC(c *clientConn, u *wire.UpdateC, global []float32) (weights, decoder []float32, err error) {
	switch u.Encoding {
	case wire.EncDelta:
		weights, err = codec.DecodeDelta(u.Weights, global)
	case wire.EncCodec:
		weights, err = codec.Decode(u.Weights, len(global))
	default:
		err = fmt.Errorf("unknown encoding %d", u.Encoding)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: weights: %v", errProtocol, err)
	}
	if u.DecoderHash == 0 {
		return weights, nil, nil
	}
	s.mu.Lock()
	cached := s.decoders[c.id]
	s.mu.Unlock()
	if len(u.Decoder) == 0 {
		if cached == nil || cached.hash != u.DecoderHash {
			return nil, nil, fmt.Errorf("%w: decoder token %016x not cached", errProtocol, u.DecoderHash)
		}
		return weights, cached.params, nil
	}
	if decoder, err = codec.Decode(u.Decoder, s.decoderSize); err != nil {
		return nil, nil, fmt.Errorf("%w: decoder blob: %v", errProtocol, err)
	}
	if codec.Hash(decoder) != u.DecoderHash {
		return nil, nil, fmt.Errorf("%w: decoder hash mismatch", errProtocol)
	}
	// The hash is the decoder's name in the checkpoint directory, where a
	// payload is written once: new floats under a cached hash would leave
	// the live cache and the store disagreeing, and a resumed run
	// diverging from this one. Honest clients never get here — they
	// answer a cached hash with the token.
	if cached != nil && cached.hash == u.DecoderHash && !sameBits(cached.params, decoder) {
		return nil, nil, fmt.Errorf("%w: decoder changed under an unchanged hash %016x",
			errProtocol, u.DecoderHash)
	}
	return weights, decoder, nil
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
