// Package telemetry is the observability substrate of the repository:
// a lock-cheap metrics registry (counters, gauges, fixed-bucket timing
// histograms, all labelable), span-style phase timers for the federated
// hot path, a structured event log behind a pluggable Sink, and a debug
// HTTP server exposing Prometheus text metrics, expvar and pprof.
//
// The paper's Table V (per-round time and traffic overhead) and Fig. 5
// (behaviour under defense failures) are observability results; this
// package turns them from post-hoc accounting into live, queryable
// series. Everything here is nil-safe: a nil *T (the bundle handed to
// the federation) makes every instrumentation call a no-op, so code can
// be instrumented unconditionally.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value metric dimension (e.g. phase="client.train").
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// DefaultBuckets are the histogram bucket upper bounds used when no
// per-metric override is registered: spanning 1 ms to 60 s, which covers
// everything from a single decoder generation to a full paper-scale
// round.
var DefaultBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// atomicFloat is a float64 with atomic add/load via CAS on the bit
// pattern.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(d float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing series.
type Counter struct{ v atomicFloat }

// Add adds d (negative deltas are ignored to keep the series monotone).
func (c *Counter) Add(d float64) {
	if d > 0 {
		c.v.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a series that can move in both directions.
type Gauge struct{ v atomicFloat }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram is a fixed-boundary distribution: observation counts per
// bucket plus total count and sum (so rates and means are derivable).
type Histogram struct {
	bounds []float64      // upper bounds, ascending; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Int64
	sum    atomicFloat
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// seriesKind discriminates the union stored in the registry map.
type seriesKind uint8

const (
	kindCounter seriesKind = iota
	kindGauge
	kindHistogram
)

func (k seriesKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (name, labels) instance.
type series struct {
	name   string
	labels []Label
	kind   seriesKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds metric series. The hot path (an existing series being
// updated) costs one RLock'd map lookup plus an atomic op; callers that
// care can also cache the returned handle and skip the lookup entirely.
type Registry struct {
	mu      sync.RWMutex
	series  map[string]*series
	buckets map[string][]float64 // per-name histogram bound overrides
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series:  make(map[string]*series),
		buckets: make(map[string][]float64),
	}
}

// SetBuckets overrides the bucket upper bounds for histograms of the
// given name. It must be called before the first observation of that
// name; later calls have no effect on already-created series.
func (r *Registry) SetBuckets(name string, bounds []float64) {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	r.mu.Lock()
	r.buckets[name] = b
	r.mu.Unlock()
}

// seriesKey renders the canonical map key: name plus sorted labels.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

func sortLabels(labels []Label) []Label {
	if len(labels) < 2 {
		return labels
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// get returns the series for (name, labels), creating it with the given
// kind on first use. A kind mismatch on an existing name returns nil —
// the caller's operation becomes a no-op rather than a panic, because
// telemetry must never take the experiment down.
func (r *Registry) get(name string, kind seriesKind, labels []Label) *series {
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	r.mu.RLock()
	s := r.series[key]
	r.mu.RUnlock()
	if s != nil {
		if s.kind != kind {
			return nil
		}
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s = r.series[key]; s != nil {
		if s.kind != kind {
			return nil
		}
		return s
	}
	s = &series{name: name, labels: labels, kind: kind}
	switch kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	case kindHistogram:
		bounds := r.buckets[name]
		if bounds == nil {
			bounds = DefaultBuckets
		}
		s.h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	}
	r.series[key] = s
	return s
}

var noopCounter = &Counter{}
var noopGauge = &Gauge{}
var noopHistogram = &Histogram{counts: make([]atomic.Int64, 1)}

// Counter returns (creating if needed) the counter for (name, labels).
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if s := r.get(name, kindCounter, labels); s != nil {
		return s.c
	}
	return noopCounter
}

// Gauge returns (creating if needed) the gauge for (name, labels).
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if s := r.get(name, kindGauge, labels); s != nil {
		return s.g
	}
	return noopGauge
}

// Histogram returns (creating if needed) the histogram for
// (name, labels).
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if s := r.get(name, kindHistogram, labels); s != nil {
		return s.h
	}
	return noopHistogram
}

// BucketCount is one histogram bucket in a snapshot: the cumulative
// count of observations at or below the upper bound Le.
type BucketCount struct {
	Le    float64 `json:"le"` // +Inf rendered as JSON null by exporters
	Count int64   `json:"count"`
}

// SeriesSnapshot is one series' frozen state.
type SeriesSnapshot struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Labels []Label `json:"labels,omitempty"`
	// Value carries counter/gauge values.
	Value float64 `json:"value,omitempty"`
	// Count, Sum and Buckets carry histogram state; Buckets are
	// cumulative, Prometheus-style.
	Count   int64         `json:"count,omitempty"`
	Sum     float64       `json:"sum,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot freezes every series, sorted by name then label key for
// deterministic output.
func (r *Registry) Snapshot() []SeriesSnapshot {
	r.mu.RLock()
	all := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		all = append(all, s)
	}
	r.mu.RUnlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].name != all[j].name {
			return all[i].name < all[j].name
		}
		return seriesKey(all[i].name, all[i].labels) < seriesKey(all[j].name, all[j].labels)
	})
	out := make([]SeriesSnapshot, 0, len(all))
	for _, s := range all {
		snap := SeriesSnapshot{Name: s.name, Kind: s.kind.String(), Labels: s.labels}
		switch s.kind {
		case kindCounter:
			snap.Value = s.c.Value()
		case kindGauge:
			snap.Value = s.g.Value()
		case kindHistogram:
			snap.Count = s.h.Count()
			snap.Sum = s.h.Sum()
			var cum int64
			for i, b := range s.h.bounds {
				cum += s.h.counts[i].Load()
				snap.Buckets = append(snap.Buckets, BucketCount{Le: b, Count: cum})
			}
			cum += s.h.counts[len(s.h.bounds)].Load()
			snap.Buckets = append(snap.Buckets, BucketCount{Le: math.Inf(1), Count: cum})
		}
		out = append(out, snap)
	}
	return out
}

// promLabels renders a label set in Prometheus exposition syntax,
// optionally with an extra le pair appended.
func promLabels(labels []Label, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, l.Value)
	}
	if le != "" {
		if len(labels) > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "le=%q", le)
	}
	sb.WriteByte('}')
	return sb.String()
}

func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", v), "0"), ".")
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4), grouped by metric family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snaps := r.Snapshot()
	lastFamily := ""
	for _, s := range snaps {
		if s.Name != lastFamily {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
				return err
			}
			lastFamily = s.Name
		}
		switch s.Kind {
		case "counter", "gauge":
			if _, err := fmt.Fprintf(w, "%s%s %v\n", s.Name, promLabels(s.Labels, ""), s.Value); err != nil {
				return err
			}
		case "histogram":
			for _, b := range s.Buckets {
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					s.Name, promLabels(s.Labels, promFloat(b.Le)), b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %v\n%s_count%s %d\n",
				s.Name, promLabels(s.Labels, ""), s.Sum,
				s.Name, promLabels(s.Labels, ""), s.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// jsonSnapshot mirrors SeriesSnapshot with +Inf made JSON-safe.
type jsonSnapshot struct {
	SeriesSnapshot
	Buckets []jsonBucket `json:"buckets,omitempty"`
}

type jsonBucket struct {
	Le    *float64 `json:"le"` // nil encodes +Inf
	Count int64    `json:"count"`
}

// jsonSafeSnapshot converts a snapshot into a form json.Marshal accepts:
// the +Inf histogram bound is encoded as a null le (JSON has no
// infinity, and encoding/json errors on it).
func jsonSafeSnapshot(snaps []SeriesSnapshot) []jsonSnapshot {
	out := make([]jsonSnapshot, len(snaps))
	for i, s := range snaps {
		out[i].SeriesSnapshot = s
		out[i].SeriesSnapshot.Buckets = nil
		for _, b := range s.Buckets {
			jb := jsonBucket{Count: b.Count}
			if !math.IsInf(b.Le, 1) {
				le := b.Le
				jb.Le = &le
			}
			out[i].Buckets = append(out[i].Buckets, jb)
		}
	}
	return out
}

// WriteJSON renders the snapshot as an indented JSON array.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonSafeSnapshot(r.Snapshot()))
}
