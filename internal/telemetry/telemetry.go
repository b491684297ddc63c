// Package telemetry is the observability substrate of the repository:
// a structured event log behind a pluggable Sink, span trees that time
// the federated hot path phase by phase, and a debug HTTP server
// exposing expvar and pprof.
//
// Each quantity has one record. A round's accuracy, phase-split time and
// traffic (the paper's Table V) are its fl.RoundRecord, logged as the
// RoundCompleted event; where its time went below those phases is the
// span tree, exported as Span events through the same sink. Everything
// here is nil-safe: a nil *T (the bundle handed to the federation) and a
// nil *Span make every instrumentation call a no-op, so code can be
// instrumented unconditionally.
package telemetry

// T bundles a run's telemetry: a sink for structured events and, when
// tracing is on, the tracer whose spans that sink exports. Every method
// is safe on a nil receiver and with nil fields, so instrumented code
// never branches on whether observability is enabled.
type T struct {
	Events Sink
	// Tracer, when non-nil, mints the run's span trees (see
	// EnableTracing). nil keeps tracing off at no cost.
	Tracer *Tracer
}

// New returns a T emitting into sink.
func New(sink Sink) *T {
	return &T{Events: sink}
}

// EnableTracing attaches a tracer for the named node: subsequent
// StartRoot/StartRemote calls mint real spans, exported as "Span"
// events through the T's sink alongside the structured run events.
func (t *T) EnableTracing(node string) *Tracer {
	if t == nil {
		return nil
	}
	t.Tracer = NewTracer(node, t.Events)
	return t.Tracer
}

// StartRoot opens a new trace rooted at this node (nil without a
// tracer; a nil *Span is valid and disabled).
func (t *T) StartRoot(name string, labels ...Label) *Span {
	if t == nil {
		return nil
	}
	return t.Tracer.StartRoot(name, labels...)
}

// StartRemote opens a span parented to a context received over the
// wire (nil without a tracer).
func (t *T) StartRemote(parent SpanContext, name string, labels ...Label) *Span {
	if t == nil {
		return nil
	}
	return t.Tracer.StartRemote(parent, name, labels...)
}

// Emit forwards e to the event sink, if any.
func (t *T) Emit(e Event) {
	if t == nil || t.Events == nil {
		return
	}
	t.Events.Emit(e)
}

// Label is one key=value span dimension (e.g. client="3").
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }
