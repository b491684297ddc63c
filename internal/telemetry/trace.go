package telemetry

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the distributed-tracing half of the package: span trees
// (trace ID, span ID, parent ID, monotonic durations, labels), the one
// phase timer of a run. A phase is parent.Child(name) … End(), and a nil
// parent makes it free. Spans are exported as "Span" events through the
// same JSONL sink as the structured run events, so one file per process
// carries both; cmd/fedtrace merges the files from a server and its
// clients back into per-round timelines.
//
// A SpanContext is 16 bytes and crosses the wire (see wire.Trace and
// the CapTrace capability), which is what lets a client's train/upload
// spans parent onto the span the server opened for its request across
// the TCP boundary.

// SpanContext identifies one span within one trace: the compact pair
// that crosses process boundaries.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context identifies a real span (the zero
// value means "no trace").
func (c SpanContext) Valid() bool { return c.TraceID != 0 && c.SpanID != 0 }

// SpanEnded is the JSONL export form of one finished span. IDs are
// rendered as fixed-width hex strings — uint64s above 2^53 are not
// JSON-safe as numbers.
type SpanEnded struct {
	Trace  string `json:"trace"`
	Span   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Node   string `json:"node"`
	// Start is the wall-clock start in Unix nanoseconds; Duration is
	// measured on the monotonic clock, so it is immune to wall steps.
	Start    int64   `json:"start_unix_ns"`
	Duration int64   `json:"duration_ns"`
	Labels   []Label `json:"labels,omitempty"`
}

// Kind implements Event.
func (SpanEnded) Kind() string { return "Span" }

// Tracer mints span IDs for one named node (e.g. "server", "client-3")
// and exports finished spans. Span IDs carry a hash of the node name in
// their high 32 bits and an atomic counter below, so IDs minted by
// different nodes of one federation never collide and a merged trace
// stays unambiguous without coordination.
type Tracer struct {
	node string
	hi   uint64
	ctr  atomic.Uint64
	sink Sink
}

// NewTracer returns a tracer for the named node. sink receives the
// SpanEnded events (nil discards them).
func NewTracer(node string, sink Sink) *Tracer {
	h := fnv.New64a()
	h.Write([]byte(node))
	hi := h.Sum64() << 32
	if hi == 0 {
		hi = 1 << 32
	}
	return &Tracer{node: node, hi: hi, sink: sink}
}

// nextID returns a process-unique nonzero ID.
func (tr *Tracer) nextID() uint64 {
	return tr.hi | (tr.ctr.Add(1) & math.MaxUint32)
}

// StartRoot opens a new trace rooted at this node.
func (tr *Tracer) StartRoot(name string, labels ...Label) *Span {
	if tr == nil {
		return nil
	}
	return tr.start(name, tr.nextID(), 0, labels)
}

// StartRemote opens a span whose parent lives on another node,
// identified by a context received over the wire. An invalid (zero)
// context starts a fresh root instead, so untraced peers degrade to
// local-only trees rather than erroring.
func (tr *Tracer) StartRemote(parent SpanContext, name string, labels ...Label) *Span {
	if tr == nil {
		return nil
	}
	if !parent.Valid() {
		return tr.StartRoot(name, labels...)
	}
	return tr.start(name, parent.TraceID, parent.SpanID, labels)
}

func (tr *Tracer) start(name string, traceID, parentID uint64, labels []Label) *Span {
	s := &Span{
		tr:     tr,
		name:   name,
		ctx:    SpanContext{TraceID: traceID, SpanID: tr.nextID()},
		parent: parentID,
		start:  time.Now(),
	}
	if len(labels) > 0 {
		s.labels = append(s.labels, labels...)
	}
	return s
}

// Span is one node of a trace tree. All methods are safe on a nil
// receiver (the disabled form every call site holds when tracing is
// off) and safe for concurrent use.
type Span struct {
	tr     *Tracer
	name   string
	ctx    SpanContext
	parent uint64
	start  time.Time

	mu     sync.Mutex
	labels []Label
	ended  bool
}

// Context returns the span's wire-propagatable identity (zero when the
// span is nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// Child opens a sub-span parented to s.
func (s *Span) Child(name string, labels ...Label) *Span {
	if s == nil {
		return nil
	}
	return s.tr.start(name, s.ctx.TraceID, s.ctx.SpanID, labels)
}

// SetLabel attaches (or replaces) a key=value label on the span.
func (s *Span) SetLabel(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, l := range s.labels {
		if l.Key == key {
			s.labels[i].Value = value
			return
		}
	}
	s.labels = append(s.labels, L(key, value))
}

// SetInt attaches an integer-valued label.
func (s *Span) SetInt(key string, v int64) { s.SetLabel(key, strconv.FormatInt(v, 10)) }

// End finishes the span and exports it as a SpanEnded event, with its
// duration measured on the monotonic clock. Only the first End has any
// effect.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	labels := append([]Label(nil), s.labels...)
	s.mu.Unlock()
	if s.tr.sink != nil {
		e := SpanEnded{
			Trace:    fmt.Sprintf("%016x", s.ctx.TraceID),
			Span:     fmt.Sprintf("%016x", s.ctx.SpanID),
			Name:     s.name,
			Node:     s.tr.node,
			Start:    s.start.UnixNano(),
			Duration: d.Nanoseconds(),
			Labels:   labels,
		}
		if s.parent != 0 {
			e.Parent = fmt.Sprintf("%016x", s.parent)
		}
		s.tr.sink.Emit(e)
	}
}
