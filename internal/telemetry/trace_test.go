package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// spanOf extracts the SpanEnded events from a CollectSink by name.
func spanOf(t *testing.T, s *CollectSink, name string) SpanEnded {
	t.Helper()
	for _, e := range s.ByKind("Span") {
		se := e.(SpanEnded)
		if se.Name == name {
			return se
		}
	}
	t.Fatalf("no span named %q exported", name)
	return SpanEnded{}
}

func TestSpanTreeParenting(t *testing.T) {
	var sink CollectSink
	tel := New(&sink)
	tr := tel.EnableTracing("server")
	if tr == nil || tr.node != "server" {
		t.Fatalf("tracer = %+v", tr)
	}

	run := tel.StartRoot("run", L("strategy", "FedGuard"))
	round := run.Child("round", L("round", "1"))
	req := round.Child("server.request", L("client", "3"))
	req.SetInt("retries", 2)
	req.End()
	round.End()
	run.End()

	if got := len(sink.ByKind("Span")); got != 3 {
		t.Fatalf("exported %d spans, want 3", got)
	}
	runS := spanOf(t, &sink, "run")
	roundS := spanOf(t, &sink, "round")
	reqS := spanOf(t, &sink, "server.request")

	if runS.Parent != "" {
		t.Fatalf("root has parent %q", runS.Parent)
	}
	if roundS.Parent != runS.Span {
		t.Fatalf("round.parent = %q, want %q", roundS.Parent, runS.Span)
	}
	if reqS.Parent != roundS.Span {
		t.Fatalf("request.parent = %q, want %q", reqS.Parent, roundS.Span)
	}
	for _, s := range []SpanEnded{runS, roundS, reqS} {
		if s.Trace != runS.Trace {
			t.Fatalf("span %q left the trace: %q vs %q", s.Name, s.Trace, runS.Trace)
		}
		if s.Node != "server" {
			t.Fatalf("span %q node = %q", s.Name, s.Node)
		}
		if s.Duration < 0 || s.Start == 0 {
			t.Fatalf("span %q has times start=%d dur=%d", s.Name, s.Start, s.Duration)
		}
	}
	// Labels survive, including the SetInt one.
	var found bool
	for _, l := range reqS.Labels {
		if l.Key == "retries" && l.Value == "2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("request labels = %v, want retries=2", reqS.Labels)
	}
}

func TestSpanRemoteParenting(t *testing.T) {
	var serverSink, clientSink CollectSink
	server := New(&serverSink)
	server.EnableTracing("server")
	client := New(&clientSink)
	client.EnableTracing("client-3")

	req := server.StartRoot("server.request")
	// The context crosses the wire as two uint64s; the client parents its
	// round span onto it.
	remote := client.StartRemote(req.Context(), "client.round")
	train := remote.Child("client.train")
	train.End()
	remote.End()
	req.End()

	reqS := spanOf(t, &serverSink, "server.request")
	remS := spanOf(t, &clientSink, "client.round")
	trainS := spanOf(t, &clientSink, "client.train")

	if remS.Trace != reqS.Trace {
		t.Fatalf("client joined trace %q, server trace is %q", remS.Trace, reqS.Trace)
	}
	if remS.Parent != reqS.Span {
		t.Fatalf("client.round parent = %q, want server span %q", remS.Parent, reqS.Span)
	}
	if trainS.Parent != remS.Span {
		t.Fatal("client-local child did not parent onto the remote-rooted span")
	}
	if remS.Node != "client-3" || reqS.Node != "server" {
		t.Fatalf("nodes = %q / %q", reqS.Node, remS.Node)
	}
}

func TestSpanIDsDistinctAcrossNodes(t *testing.T) {
	// Two nodes minting IDs without coordination must not collide: the
	// node-hash high bits keep the streams disjoint.
	a := NewTracer("server", nil)
	b := NewTracer("client-7", nil)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		for _, tr := range []*Tracer{a, b} {
			id := tr.StartRoot("x").Context().SpanID
			if id == 0 || seen[id] {
				t.Fatalf("span ID %x reused or zero", id)
			}
			seen[id] = true
		}
	}
}

func TestSpanRemoteInvalidContextDegradesToRoot(t *testing.T) {
	var sink CollectSink
	tel := New(&sink)
	tel.EnableTracing("client-0")
	sp := tel.StartRemote(SpanContext{}, "client.round")
	sp.End()
	s := spanOf(t, &sink, "client.round")
	if s.Parent != "" {
		t.Fatalf("untraced peer produced parent %q, want fresh root", s.Parent)
	}
	if s.Trace == "" || s.Span == "" {
		t.Fatal("degraded span lost its identity")
	}
}

func TestSpanNilSafety(t *testing.T) {
	var sp *Span
	sp.SetLabel("k", "v")
	sp.SetInt("n", 1)
	sp.End()
	if sp.Child("x") != nil {
		t.Fatal("nil span minted a child")
	}
	if sp.Context().Valid() {
		t.Fatal("nil span has a valid context")
	}
	var tr *Tracer
	if tr.StartRoot("x") != nil || tr.StartRemote(SpanContext{TraceID: 1, SpanID: 1}, "y") != nil {
		t.Fatal("nil tracer minted spans")
	}
	var tel *T
	if s := tel.StartRoot("x"); s != nil {
		t.Fatal("nil T minted a span")
	}
	// T without tracing: no root, so every phase under it is free.
	var sink CollectSink
	tel = New(&sink)
	root := tel.StartRoot("run")
	root.Child("client.train").End()
	root.End()
	if root != nil || len(sink.ByKind("Span")) != 0 {
		t.Fatal("an untraced T exported spans")
	}
}

func TestSpanEndIdempotentAndObservesOnce(t *testing.T) {
	var sink CollectSink
	tel := New(&sink)
	tel.EnableTracing("n")
	sp := tel.StartRoot("round")
	sp.End()
	sp.End()
	sp.End()
	if got := len(sink.ByKind("Span")); got != 1 {
		t.Fatalf("exported %d spans, want 1", got)
	}
}

func TestStartPhaseSpanObservesOnce(t *testing.T) {
	// A phase is a child span: ended (even twice) it is exported exactly
	// once, under its parent, with a duration.
	var sink CollectSink
	tel := New(&sink)
	tel.EnableTracing("n")
	root := tel.StartRoot("run")
	sp := root.Child("server.aggregate")
	if sp == nil {
		t.Fatal("a traced parent returned a nil child")
	}
	time.Sleep(time.Millisecond)
	sp.End()
	sp.End()
	spans := sink.ByKind("Span")
	if len(spans) != 1 {
		t.Fatalf("exported %d spans, want 1", len(spans))
	}
	got := spans[0].(SpanEnded)
	if got.Name != "server.aggregate" || got.Parent != fmt.Sprintf("%016x", root.Context().SpanID) || got.Duration <= 0 {
		t.Fatalf("phase span = %+v", got)
	}
}

func TestSpanJSONLExport(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tel := New(sink)
	tel.EnableTracing("server")
	run := tel.StartRoot("run")
	run.Child("round", L("round", "1")).End()
	run.End()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	var env struct {
		Event string `json:"event"`
		Data  struct {
			Trace    string `json:"trace"`
			Span     string `json:"span"`
			Parent   string `json:"parent"`
			Name     string `json:"name"`
			Node     string `json:"node"`
			Start    int64  `json:"start_unix_ns"`
			Duration int64  `json:"duration_ns"`
			Labels   []struct{ Key, Value string }
		} `json:"data"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &env); err != nil {
		t.Fatal(err)
	}
	if env.Event != "Span" || env.Data.Name != "round" || env.Data.Node != "server" {
		t.Fatalf("envelope = %+v", env)
	}
	if len(env.Data.Trace) != 16 || len(env.Data.Span) != 16 || len(env.Data.Parent) != 16 {
		t.Fatalf("IDs not fixed-width hex: %+v", env.Data)
	}
	if env.Data.Start == 0 {
		t.Fatal("span lost its start time")
	}
}

// TestJSONLSinkConcurrentWriters is the regression test for the sink's
// goroutine-safety contract: the networked server's per-client request
// goroutines all emit spans into one sink while the round loop emits run
// events. Without the mutex around the buffered writer this fails under
// -race; without line-atomic writes the JSONL would interleave and fail
// to parse back.
func TestJSONLSinkConcurrentWriters(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	tel := New(s)
	tel.EnableTracing("server")

	const goroutines = 8
	const spansEach = 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < spansEach; i++ {
				sp := tel.StartRoot("server.request", L("client", fmt.Sprint(g)))
				sp.SetInt("round", int64(i))
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	// RunCompleted must flush the buffer: the file is complete the moment
	// the run logically ends, with no explicit Flush.
	s.Emit(RunCompleted{Rounds: 1})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := goroutines*spansEach + 1
	if len(lines) != want {
		t.Fatalf("flushed %d lines, want %d (RunCompleted did not flush?)", len(lines), want)
	}
	for i, line := range lines {
		var env struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			t.Fatalf("line %d is not valid JSON (interleaved writes?): %v\n%s", i, err, line)
		}
	}
	if err := s.err; err != nil {
		t.Fatal(err)
	}
}
