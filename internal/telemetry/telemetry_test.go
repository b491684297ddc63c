package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTIsSafe(t *testing.T) {
	var tel *T
	tel.Emit(RunStarted{Rounds: 1})
	tel.EnableTracing("n")
	if tel.StartRoot("run") != nil || tel.StartRemote(SpanContext{TraceID: 1, SpanID: 1}, "x") != nil {
		t.Fatal("nil T minted a span")
	}
	// And a T with nil fields.
	tel = &T{}
	tel.Emit(RunStarted{})
	if sp := tel.StartRoot("run"); sp != nil {
		t.Fatal("T without a tracer minted a span")
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.now = func() time.Time { return time.Unix(1700000000, 0) }
	s.Emit(RunStarted{Strategy: "FedGuard", NumClients: 16, PerRound: 8, Rounds: 2, Seed: 7})
	s.Emit(ClientDropped{Round: 1, ClientID: 3, Reason: "timeout"})
	if buf.Len() != 0 {
		t.Fatal("the sink wrote before a flush or RunCompleted")
	}
	s.Emit(RunCompleted{Rounds: 2, FinalAccuracy: 0.5})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("RunCompleted flushed %d lines, want 3", len(lines))
	}
	var env struct {
		Time  string          `json:"time"`
		Event string          `json:"event"`
		Data  json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &env); err != nil {
		t.Fatal(err)
	}
	if env.Event != "ClientDropped" || env.Time != "2023-11-14T22:13:20Z" {
		t.Fatalf("envelope = %+v", env)
	}
	var cd ClientDropped
	if err := json.Unmarshal(env.Data, &cd); err != nil {
		t.Fatal(err)
	}
	if cd != (ClientDropped{Round: 1, ClientID: 3, Reason: "timeout"}) {
		t.Fatalf("payload = %+v", cd)
	}
	if !strings.Contains(lines[1], `"data":{"round":1,"client_id":3,"reason":"timeout"}`) {
		t.Fatalf("ClientDropped keys changed: %s", lines[1])
	}
}

// TestConcurrentUpdates labels one span from many goroutines, then ends
// it from as many, as the networked server's request goroutines may:
// every label lands once, a key set twice keeps one entry, and the span
// is exported once.
func TestConcurrentUpdates(t *testing.T) {
	var sink CollectSink
	tel := New(&sink)
	tel.EnableTracing("server")
	sp := tel.StartRoot("round")
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i <= 100; i++ {
				sp.SetInt(fmt.Sprintf("w%d", w), int64(i))
				sp.SetLabel("shared", "x")
			}
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp.End()
		}()
	}
	wg.Wait()
	spans := sink.ByKind("Span")
	if len(spans) != 1 {
		t.Fatalf("exported %d spans, want 1", len(spans))
	}
	labels := map[string]string{}
	for _, l := range spans[0].(SpanEnded).Labels {
		labels[l.Key] = l.Value
	}
	if len(labels) != workers+1 || len(spans[0].(SpanEnded).Labels) != workers+1 || labels["shared"] != "x" {
		t.Fatalf("labels = %v", spans[0].(SpanEnded).Labels)
	}
	for w := 0; w < workers; w++ {
		if v := labels[fmt.Sprintf("w%d", w)]; v != "100" {
			t.Fatalf("w%d = %q, want the last value set, 100", w, v)
		}
	}
}

func TestCollectSinkByKind(t *testing.T) {
	var s CollectSink
	s.Emit(ClientRejoined{Round: 1})
	s.Emit(ClientDropped{Round: 1, ClientID: 2})
	s.Emit(ClientRejoined{Round: 2})
	if got := len(s.ByKind("ClientRejoined")); got != 2 {
		t.Fatalf("ClientRejoined events = %d", got)
	}
	if got := len(s.ByKind("ClientDropped")); got != 1 {
		t.Fatalf("ClientDropped events = %d", got)
	}
}

func TestDebugServerEndpoints(t *testing.T) {
	ds, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", ds.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars: %d", code)
	} else {
		var doc map[string]json.RawMessage
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("/debug/vars is not valid JSON: %v", err)
		}
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: %d", code)
	}
	// The run's numbers are its event log's; the listener serves none.
	if code, _ := get("/metrics"); code != http.StatusNotFound {
		t.Fatalf("/metrics: %d, want 404", code)
	}
}
