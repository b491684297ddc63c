package telemetry

import "time"

// T bundles the two halves of a run's telemetry: a metrics registry for
// numeric series and a sink for structured events. Every method is safe
// on a nil receiver and with nil fields, so instrumented code never
// branches on whether observability is enabled — a disabled run costs a
// nil check per call site and nothing else.
type T struct {
	Metrics *Registry
	Events  Sink
	// Tracer, when non-nil, upgrades phase timers to real span trees
	// (see EnableTracing). nil keeps tracing off with zero cost.
	Tracer *Tracer
}

// New returns a T with a fresh registry and the given sink (nil sink
// keeps events disabled while metrics collect).
func New(sink Sink) *T {
	return &T{Metrics: NewRegistry(), Events: sink}
}

// EnableTracing attaches a tracer for the named node: subsequent
// StartRoot/StartRemote calls mint real spans, exported as "Span"
// events through the T's sink alongside the structured run events and
// observed into the phase histogram on End.
func (t *T) EnableTracing(node string) *Tracer {
	if t == nil {
		return nil
	}
	t.Tracer = NewTracer(node, t.Events, t.Metrics)
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

// StartPhase opens a child span under parent when one is live, falling
// back to a flat phase timer otherwise. Either way the duration lands
// in the PhaseMetric histogram exactly once; call the returned stop
// function to finish. The *Span is nil in the fallback (and always
// safe to use).
func (t *T) StartPhase(parent *Span, name string, labels ...Label) (*Span, func()) {
	if parent != nil {
		sp := parent.Child(name, labels...)
		return sp, sp.End
	}
	return nil, t.StartSpan(name, labels...)
}

// Emit forwards e to the event sink, if any.
func (t *T) Emit(e Event) {
	if t == nil || t.Events == nil {
		return
	}
	t.Events.Emit(e)
}

// noopStop is returned by disabled spans.
func noopStop() {}

// PhaseMetric is the histogram family name all spans observe into,
// labeled by phase.
const PhaseMetric = "fedguard_phase_seconds"

// StartSpan opens a phase timer. The returned stop function records the
// elapsed seconds into the PhaseMetric histogram labeled
// phase=<name> (plus any extra labels); call it exactly once, typically
// via defer.
func (t *T) StartSpan(phase string, labels ...Label) func() {
	if t == nil || t.Metrics == nil {
		return noopStop
	}
	all := make([]Label, 0, len(labels)+1)
	all = append(all, L("phase", phase))
	all = append(all, labels...)
	h := t.Metrics.Histogram(PhaseMetric, all...)
	start := time.Now()
	return func() { h.Observe(time.Since(start).Seconds()) }
}

// AddCounter increments the named counter by d.
func (t *T) AddCounter(name string, d float64, labels ...Label) {
	if t == nil || t.Metrics == nil {
		return
	}
	t.Metrics.Counter(name, labels...).Add(d)
}

// SetGauge sets the named gauge to v.
func (t *T) SetGauge(name string, v float64, labels ...Label) {
	if t == nil || t.Metrics == nil {
		return
	}
	t.Metrics.Gauge(name, labels...).Set(v)
}

// Observe records v into the named histogram.
func (t *T) Observe(name string, v float64, labels ...Label) {
	if t == nil || t.Metrics == nil {
		return
	}
	t.Metrics.Histogram(name, labels...).Observe(v)
}
