package fednet

import (
	"errors"
	"strconv"
	"sync"
	"testing"

	"fedguard/internal/aggregate"
	"fedguard/internal/fl"
	"fedguard/internal/telemetry"
)

// runTracedLoopback runs one traced federation over loopback TCP with a
// per-client telemetry bundle, returning the server's sink and one sink
// per client. opts.Telemetry/Trace are overridden per client.
func runTracedLoopback(t *testing.T, cfg Config, opts ClientOptions) (*telemetry.CollectSink, []*telemetry.CollectSink) {
	t.Helper()
	serverSink := &telemetry.CollectSink{}
	cfg.Telemetry = telemetry.New(serverSink)
	cfg.Telemetry.EnableTracing("server")
	cfg.Trace = true

	clientSinks := make([]*telemetry.CollectSink, cfg.Experiment.NumClients)
	for id := range clientSinks {
		clientSinks[id] = &telemetry.CollectSink{}
	}
	traced := func(addr string, id int) error {
		o := opts
		if o.Trace {
			o.Telemetry = telemetry.New(clientSinks[id])
			o.Telemetry.EnableTracing("client-" + strconv.Itoa(id))
		}
		return RunClient(addr, id, o)
	}
	loopback{client: traced}.mustRun(t, newServer(t, cfg, testSet(), aggregate.NewFedAvg()))
	return serverSink, clientSinks
}

func spansOf(sink *telemetry.CollectSink) []telemetry.SpanEnded {
	var out []telemetry.SpanEnded
	for _, ev := range sink.ByKind("Span") {
		out = append(out, ev.(telemetry.SpanEnded))
	}
	return out
}

func labelOf(s telemetry.SpanEnded, key string) string {
	for _, l := range s.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// TestTracedLoopbackPropagatesSpanContext pins the wire propagation: a
// traced client's round spans carry the server's trace ID and parent
// onto the exact server.request span IDs the server exported — the
// cross-process causality CapTrace exists for.
func TestTracedLoopbackPropagatesSpanContext(t *testing.T) {
	serverSink, clientSinks := runTracedLoopback(t, testConfig(), ClientOptions{Trace: true})

	serverSpans := spansOf(serverSink)
	var traceID string
	requests := map[string]bool{} // span ID → seen
	for _, s := range serverSpans {
		if s.Name == "run" {
			traceID = s.Trace
		}
		if s.Name == "server.request" {
			requests[s.Span] = true
			if labelOf(s, "outcome") != "ok" {
				t.Fatalf("fault-free run has non-ok request: %+v", s)
			}
			if labelOf(s, "encoding") != "raw" {
				t.Fatalf("uncompressed run negotiated encoding %q", labelOf(s, "encoding"))
			}
		}
	}
	if traceID == "" || len(requests) == 0 {
		t.Fatalf("server exported no run/request spans (%d spans)", len(serverSpans))
	}

	rounds, trains, uploads := 0, 0, 0
	for id, sink := range clientSinks {
		for _, s := range spansOf(sink) {
			if s.Trace != traceID {
				t.Fatalf("client %d span %q has trace %s, want %s", id, s.Name, s.Trace, traceID)
			}
			switch s.Name {
			case "client.round":
				rounds++
				if !requests[s.Parent] {
					t.Fatalf("client %d round span parents onto unknown span %s", id, s.Parent)
				}
				if labelOf(s, "client") != strconv.Itoa(id) {
					t.Fatalf("client %d span labeled client=%q", id, labelOf(s, "client"))
				}
			case "client.train":
				trains++
			case "client.upload":
				uploads++
				if labelOf(s, "bytes") == "" || labelOf(s, "bytes") == "0" {
					t.Fatalf("upload span without byte count: %+v", s)
				}
			}
		}
	}
	want := testConfig().Experiment.PerRound * testConfig().Experiment.Rounds
	if rounds != want {
		t.Fatalf("%d client.round spans, want %d", rounds, want)
	}
	if trains != want || uploads != want {
		t.Fatalf("train/upload spans %d/%d, want %d each", trains, uploads, want)
	}
}

// TestTracedLegacyClientInterop runs a traced server against clients
// that never advertise CapTrace: the run must complete normally, the
// server still exports its own tree, and no trace block reaches the
// legacy peers (their spans, if any, would fail to parent — they simply
// have none, having no tracer).
func TestTracedLegacyClientInterop(t *testing.T) {
	serverSink, clientSinks := runTracedLoopback(t, testConfig(), ClientOptions{})
	if len(spansOf(serverSink)) == 0 {
		t.Fatal("traced server exported no spans against legacy clients")
	}
	for id, sink := range clientSinks {
		if n := len(spansOf(sink)); n != 0 {
			t.Fatalf("legacy client %d exported %d spans", id, n)
		}
	}
	for _, s := range spansOf(serverSink) {
		if s.Name == "server.request" && labelOf(s, "outcome") != "ok" {
			t.Fatalf("legacy interop dropped a client: %+v", s)
		}
	}
}

// TestTracedMatchesUntracedWeights pins that tracing is observation
// only: the same configuration with tracing on and off produces
// bit-identical final weights (the trailing trace block never perturbs
// the model payload or the round schedule).
func TestTracedMatchesUntracedWeights(t *testing.T) {
	serverSink := &telemetry.CollectSink{}
	cfg := signFlipConfig()
	cfg.Telemetry = telemetry.New(serverSink)
	cfg.Telemetry.EnableTracing("server")
	cfg.Trace = true
	traced := runLoopback(t, cfg, aggregate.NewFedAvg(), testSet(),
		ClientOptions{Trace: true, Telemetry: telemetry.New(&telemetry.CollectSink{})})

	expectSameRun(t, traced, signFlipRun.get(t))
	if len(serverSink.ByKind("Span")) == 0 {
		t.Fatal("traced run exported no spans")
	}
}

// TestTracedCompressedLoopback exercises CapTrace and CapCodec together:
// the trace block rides after the compressed bodies, so spans must still
// parent across the wire and the negotiated encoding label must say so.
func TestTracedCompressedLoopback(t *testing.T) {
	cfg := testConfig()
	cfg.Compress = true
	serverSink, clientSinks := runTracedLoopback(t, cfg, ClientOptions{Trace: true, Compress: true})

	requests := map[string]bool{}
	for _, s := range spansOf(serverSink) {
		if s.Name == "server.request" {
			requests[s.Span] = true
			if labelOf(s, "encoding") != "codec" {
				t.Fatalf("compressed run negotiated encoding %q", labelOf(s, "encoding"))
			}
		}
	}
	decodes, encodes := 0, 0
	for id, sink := range clientSinks {
		for _, s := range spansOf(sink) {
			switch s.Name {
			case "client.round":
				if !requests[s.Parent] {
					t.Fatalf("client %d compressed round span orphaned (parent %s)", id, s.Parent)
				}
			case "client.decode":
				decodes++
			case "client.encode":
				encodes++
			}
		}
	}
	if decodes == 0 || encodes == 0 {
		t.Fatalf("codec phases missing from trace: %d decodes, %d encodes", decodes, encodes)
	}
}

// lastEventSink is a CollectSink that also keeps the last event it saw.
type lastEventSink struct {
	telemetry.CollectSink
	mu   sync.Mutex
	last telemetry.Event
}

func (s *lastEventSink) Emit(e telemetry.Event) {
	s.CollectSink.Emit(e)
	s.mu.Lock()
	s.last = e
	s.mu.Unlock()
}

// TestTracedKilledServerExportsWholeTrees kills a traced server after
// round 1: the run span and both round spans are still exported, so no
// span in the server's log names a parent the log does not hold.
func TestTracedKilledServerExportsWholeTrees(t *testing.T) {
	cfg := testConfig()
	sink := &lastEventSink{}
	cfg.Telemetry = telemetry.New(sink)
	cfg.Telemetry.EnableTracing("server")
	srv := newServer(t, cfg, testSet(), aggregate.NewFedAvg())
	kill := loopback{onRound: func(rec fl.RoundRecord) {
		if rec.Round == 1 {
			srv.Kill()
		}
	}}
	if _, _, err := kill.run(t, srv); !errors.Is(err, ErrKilled) {
		t.Fatalf("server error = %v, want ErrKilled", err)
	}
	names := map[string]int{}
	ids := map[string]bool{}
	for _, s := range spansOf(&sink.CollectSink) {
		names[s.Name]++
		ids[s.Span] = true
	}
	if names["run"] != 1 || names["round"] != 2 {
		t.Fatalf("exported spans %v, want one run and two rounds", names)
	}
	for _, s := range spansOf(&sink.CollectSink) {
		if s.Parent != "" && !ids[s.Parent] {
			t.Fatalf("%s span names parent %s, which was never exported", s.Name, s.Parent)
		}
	}
	// The log closes on the kill, not on the last span.
	done, ok := sink.last.(telemetry.RunCompleted)
	if !ok || done.Rounds != 1 || done.Error != ErrKilled.Error() {
		t.Fatalf("log ends on %#v, want a RunCompleted of 1 round with error %q", sink.last, ErrKilled)
	}
}
