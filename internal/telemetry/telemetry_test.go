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

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("rounds_total")
	c.Add(1)
	c.Add(2)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	g := r.Gauge("test_accuracy", L("strategy", "FedGuard"))
	g.Set(0.25)
	g.Set(0.75)
	if got := g.Value(); got != 0.75 {
		t.Fatalf("gauge = %v, want the last value set, 0.75", got)
	}
	// Same (name, labels) returns the same series.
	if r.Counter("rounds_total") != c {
		t.Fatal("counter handle not cached")
	}
	if r.Gauge("test_accuracy", L("strategy", "FedGuard")) != g {
		t.Fatal("gauge handle not cached")
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x", L("b", "2"), L("a", "1"))
	b := r.Counter("x", L("a", "1"), L("b", "2"))
	if a != b {
		t.Fatal("label order created distinct series")
	}
}

func TestKindMismatchIsNoop(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash").Add(1)
	g := r.Gauge("clash") // wrong kind: must not panic, must be inert
	g.Set(99)
	if got := r.Counter("clash").Value(); got != 1 {
		t.Fatalf("counter clobbered by kind mismatch: %v", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	r.SetBuckets("lat", []float64{1, 10, 100})
	h := r.Histogram("lat")
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Fatalf("sum = %v", h.Sum())
	}
	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d series", len(snap))
	}
	// Cumulative: <=1 holds 0.5 and 1.0; <=10 adds 5; <=100 adds 50;
	// +Inf adds 500.
	want := []int64{2, 3, 4, 5}
	for i, b := range snap[0].Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, b.Count, want[i])
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("n").Add(1)
				r.Histogram("h").Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Fatalf("counter = %v, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("rounds_total").Add(3)
	r.Gauge("peer_bytes_read", L("client", "0")).Set(1024)
	r.SetBuckets("dur", []float64{0.1, 1})
	r.Histogram("dur", L("phase", "client.train")).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE rounds_total counter",
		"rounds_total 3",
		`peer_bytes_read{client="0"} 1024`,
		"# TYPE dur histogram",
		`dur_bucket{phase="client.train",le="0.1"} 0`,
		`dur_bucket{phase="client.train",le="1"} 1`,
		`dur_bucket{phase="client.train",le="+Inf"} 1`,
		`dur_sum{phase="client.train"} 0.5`,
		`dur_count{phase="client.train"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(1)
	r.Histogram("b").Observe(2)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded) != 2 {
		t.Fatalf("decoded %d series, want 2", len(decoded))
	}
}

func TestNilTIsSafe(t *testing.T) {
	var tel *T
	tel.Emit(RoundCompleted{Round: 1})
	tel.AddCounter("x", 1)
	tel.SetGauge("y", 2)
	tel.Observe("z", 3)
	tel.StartSpan("phase")()
	// And a T with nil fields.
	tel = &T{}
	tel.Emit(RunStarted{})
	tel.StartSpan("phase")()
}

func TestSpanObservesPhaseHistogram(t *testing.T) {
	tel := New(nil)
	stop := tel.StartSpan("client.train")
	time.Sleep(time.Millisecond)
	stop()
	h := tel.Metrics.Histogram(PhaseMetric, L("phase", "client.train"))
	if h.Count() != 1 {
		t.Fatalf("span recorded %d observations", h.Count())
	}
	if h.Sum() <= 0 {
		t.Fatalf("span recorded non-positive duration %v", h.Sum())
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.now = func() time.Time { return time.Unix(1700000000, 0) }
	s.Emit(RunStarted{Strategy: "FedGuard", NumClients: 16, PerRound: 8, Rounds: 2, Seed: 7})
	s.Emit(RoundCompleted{Round: 1, Threshold: 0.5, Decisions: []Decision{
		{ClientID: 3, Score: 0.1, Malicious: true}, {ClientID: 5, Score: 0.75, Kept: true}}})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	var env struct {
		Time  string          `json:"time"`
		Event string          `json:"event"`
		Data  json.RawMessage `json:"data"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &env); err != nil {
		t.Fatal(err)
	}
	if env.Event != "RoundCompleted" || env.Time == "" {
		t.Fatalf("envelope = %+v", env)
	}
	// The line carries every decision, kept clients' scores included.
	var rc RoundCompleted
	if err := json.Unmarshal(env.Data, &rc); err != nil {
		t.Fatal(err)
	}
	if rc.Round != 1 || rc.Threshold != 0.5 || len(rc.Decisions) != 2 ||
		rc.Decisions[0] != (Decision{ClientID: 3, Score: 0.1, Malicious: true}) ||
		rc.Decisions[1] != (Decision{ClientID: 5, Score: 0.75, Kept: true}) {
		t.Fatalf("payload = %+v", rc)
	}
	if !strings.Contains(lines[1], `"decisions":[{"client_id":3,"score":0.1,"kept":false,"malicious":true}`) {
		t.Fatalf("decision keys changed: %s", lines[1])
	}
}

func TestCollectSinkByKind(t *testing.T) {
	var s CollectSink
	s.Emit(RoundCompleted{Round: 1})
	s.Emit(ClientDropped{Round: 1, ClientID: 2})
	s.Emit(RoundCompleted{Round: 2})
	if got := len(s.ByKind("RoundCompleted")); got != 2 {
		t.Fatalf("RoundCompleted events = %d", got)
	}
	if got := len(s.ByKind("ClientDropped")); got != 1 {
		t.Fatalf("ClientDropped events = %d", got)
	}
}

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("rounds_total").Add(4)
	// A histogram carries a +Inf bucket bound; /debug/vars must still be
	// valid JSON (expvar silently emits nothing on a marshal error).
	reg.Histogram("phase_seconds", L("phase", "train")).Observe(0.2)
	ds, err := ServeDebug("127.0.0.1:0", reg)
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
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "rounds_total 4") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, `"rounds_total"`) {
		t.Fatalf("/metrics.json: %d %q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars: %d", code)
	} else {
		var doc map[string]json.RawMessage
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("/debug/vars is not valid JSON: %v", err)
		}
		var snaps []jsonSnapshot
		if err := json.Unmarshal(doc["fedguard_metrics"], &snaps); err != nil {
			t.Fatalf("fedguard_metrics expvar: %v", err)
		}
		if len(snaps) == 0 {
			t.Fatal("fedguard_metrics expvar is empty")
		}
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: %d", code)
	}
}
