package fednet

import (
	"strconv"
	"sync"

	"fedguard/internal/codec"
	"fedguard/internal/telemetry"
	"fedguard/internal/wire"
)

// bcastEntry is one shared encoded broadcast payload. refs counts the
// connections whose cached round request references payload; when it
// drops to zero the buffer returns to bcastBufPool.
type bcastEntry struct {
	payload []byte
	refs    int
}

// bcastBufPool recycles broadcast payload buffers between rounds.
var bcastBufPool = sync.Pool{New: func() any { return []byte(nil) }}

// buildRequest returns the round's request frame for one connection in
// its negotiated dialect: the global as it is, or the cached compressed
// broadcast. On CapTrace connections the frame carries reqSpan's
// context. Caller holds c.mu.
func (s *Server) buildRequest(c *clientConn, round int, needDecoder bool, global []float32, reqSpan *telemetry.Span) (any, error) {
	if c.enc {
		return s.buildRequestC(c, round, needDecoder, global, reqSpan)
	}
	tr := &wire.TrainRequest{Round: uint32(round), NeedDecoder: needDecoder, Global: global}
	if c.trace {
		tr.Trace = wireTrace(reqSpan.Context())
	}
	return tr, nil
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
		hash = e.Hash
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
	buf, _ := bcastBufPool.Get().([]byte)
	payload, err := codec.AppendEncodeDelta(buf[:0], global, base)
	if err != nil {
		sp.End()
		return nil, err
	}
	s.bcastEncodes.Add(1)
	sp.SetInt("bytes", int64(len(payload)))
	sp.End()
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
