package main

import (
	"encoding/binary"
	"net"
	"sync"
	"time"

	"fedguard/internal/fl"
	"fedguard/internal/wire"
)

// The seams are the only places the benchmark touches the program while
// it runs: a decorator around the fl.Strategy handed to the round engine,
// and net.Conn wrappers on both ends of the loopback. Both record spans
// into the benchmark's tracer and keep what the probes need afterwards.

// cohort is one round's aggregation input, kept for the layer probes.
type cohort struct {
	round   int
	global  []float32
	updates []fl.Update
}

// strategySeam is the state shared by the strategy decorators of a pass.
type strategySeam struct {
	tr *tracer

	mu      sync.Mutex
	last    cohort        // the latest round aggregated
	overlap time.Duration // Σ Overlap() busy time read just before Finalize
}

// capture keeps the round's cohort. The in-process engine reuses the
// global buffer two rounds later, so it is copied; updates are fresh
// slices every round.
func (s *strategySeam) capture(ctx *fl.RoundContext) {
	s.mu.Lock()
	s.last = cohort{
		round:   ctx.Round,
		global:  append(s.last.global[:0], ctx.Global...),
		updates: ctx.Updates,
	}
	s.mu.Unlock()
}

// tracedStrategy times Aggregate. Name and NeedsDecoders pass through.
type tracedStrategy struct {
	fl.Strategy
	seam *strategySeam
}

func (t *tracedStrategy) Aggregate(ctx *fl.RoundContext) ([]float32, error) {
	start := t.seam.tr.now()
	out, err := t.Strategy.Aggregate(ctx)
	t.seam.tr.add("strategy.aggregate", start, t.seam.tr.now(), ctx.Round, -1)
	t.seam.capture(ctx)
	return out, err
}

// tracedStreaming adds BeginRound, so the engine's type assertion sees a
// StreamingStrategy exactly when the wrapped strategy is one.
type tracedStreaming struct {
	tracedStrategy
	inner fl.StreamingStrategy
}

func (t *tracedStreaming) BeginRound(ctx *fl.RoundContext, m int) fl.RoundStream {
	start := t.seam.tr.now()
	st := t.inner.BeginRound(ctx, m)
	t.seam.tr.add("strategy.begin_round", start, t.seam.tr.now(), ctx.Round, -1)
	if st == nil {
		return nil
	}
	return &tracedStream{RoundStream: st, seam: t.seam, round: ctx.Round}
}

// decorate wraps s for tracing.
func decorate(s fl.Strategy, seam *strategySeam) fl.Strategy {
	base := tracedStrategy{Strategy: s, seam: seam}
	if ss, ok := s.(fl.StreamingStrategy); ok {
		return &tracedStreaming{tracedStrategy: base, inner: ss}
	}
	return &base
}

// tracedStream times Submit and Finalize and notes the overlap the engine
// reads before Finalize. Abort passes through.
type tracedStream struct {
	fl.RoundStream
	seam  *strategySeam
	round int
}

func (t *tracedStream) Submit(slot int, u fl.Update) {
	start := t.seam.tr.now()
	t.RoundStream.Submit(slot, u)
	t.seam.tr.add("strategy.submit", start, t.seam.tr.now(), t.round, u.ClientID)
}

func (t *tracedStream) Overlap() (time.Duration, int) {
	busy, jobs := t.RoundStream.Overlap()
	t.seam.mu.Lock()
	t.seam.overlap += busy
	t.seam.mu.Unlock()
	return busy, jobs
}

func (t *tracedStream) Finalize(ctx *fl.RoundContext) ([]float32, error) {
	start := t.seam.tr.now()
	out, err := t.RoundStream.Finalize(ctx)
	t.seam.tr.add("strategy.aggregate", start, t.seam.tr.now(), ctx.Round, -1)
	t.seam.capture(ctx)
	return out, err
}

// frame is one wire frame seen on a connection. first and last are the
// tracer times of the calls that moved its first and last byte: for a
// read, when the call returned; for a write, when the first call began
// and the last one returned.
type frame struct {
	typ         byte
	round       int
	bytes       int
	first, last float64
}

// Frame prelude as package wire writes it: [u32 length][u32 crc], then
// length payload bytes of which the first is the message type. Round
// requests and updates of both dialects start their body with the round
// as u32. The framer reads that much and no more; conn_test.go scripts a
// pipe with wire.WriteMessage so a format change fails there first.
const (
	preludeLen = 8
	peekLen    = preludeLen + 1 + 4
)

// framer splits one direction of a byte stream into frames.
type framer struct {
	head   [peekLen]byte
	pos    int // bytes of the current frame seen so far
	total  int // prelude + payload, known once pos >= preludeLen
	cur    frame
	frames []frame
}

func (f *framer) feed(p []byte, first, last float64) {
	for len(p) > 0 {
		if f.pos == 0 {
			f.cur = frame{first: first}
		}
		limit := preludeLen
		if f.pos >= preludeLen {
			limit = f.total
		}
		take := len(p)
		if f.pos+take > limit {
			take = limit - f.pos
		}
		if f.pos < peekLen {
			copy(f.head[f.pos:], p[:take])
		}
		f.pos += take
		p = p[take:]
		if f.pos == preludeLen && limit == preludeLen {
			f.total = preludeLen + int(binary.LittleEndian.Uint32(f.head[:4]))
			if f.total > preludeLen {
				continue
			}
		}
		if f.pos == f.total {
			f.cur.bytes = f.total
			f.cur.last = last
			if f.total > preludeLen {
				f.cur.typ = f.head[preludeLen]
			}
			if f.total >= peekLen && isRoundFrame(f.cur.typ) {
				f.cur.round = int(binary.LittleEndian.Uint32(f.head[preludeLen+1:]))
			}
			f.frames = append(f.frames, f.cur)
			f.pos = 0
		}
	}
}

func isRequest(typ byte) bool { return typ == wire.TypeTrainRequest || typ == wire.TypeTrainRequestC }
func isUpdate(typ byte) bool  { return typ == wire.TypeUpdate || typ == wire.TypeUpdateC }
func isRoundFrame(typ byte) bool {
	return isRequest(typ) || isUpdate(typ)
}

// tracedConn logs the frames crossing a connection in each direction.
// The round loop uses a connection from one goroutine at a time per
// direction; the mutex only orders that use against the final read-out.
type tracedConn struct {
	net.Conn
	tr     *tracer
	client int // dialing client's ID, -1 on the accepting side

	mu     sync.Mutex
	rd, wr framer
	writes int
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		t := c.tr.now()
		c.mu.Lock()
		c.rd.feed(p[:n], t, t)
		c.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := c.tr.now()
	n, err := c.Conn.Write(p)
	end := c.tr.now()
	c.mu.Lock()
	c.writes++
	if n > 0 {
		c.wr.feed(p[:n], start, end)
	}
	c.mu.Unlock()
	return n, err
}

func (c *tracedConn) log() (read, written []frame, writes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rd.frames, c.wr.frames, c.writes
}

// tracedListener hands out tracedConns and remembers them.
type tracedListener struct {
	net.Listener
	tr *tracer

	mu    sync.Mutex
	conns []*tracedConn
}

func (l *tracedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{Conn: conn, tr: l.tr, client: -1}
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

func (l *tracedListener) accepted() []*tracedConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*tracedConn(nil), l.conns...)
}
