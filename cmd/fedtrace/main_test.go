package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fedguard/internal/aggregate"
	"fedguard/internal/classifier"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/defense"
	"fedguard/internal/faultnet"
	"fedguard/internal/fednet"
	"fedguard/internal/fl"
	"fedguard/internal/rng"
	"fedguard/internal/telemetry"
)

// line builds one JSONL event envelope the way telemetry.JSONLSink does.
func line(t *testing.T, ev any) string {
	t.Helper()
	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	env, err := json.Marshal(map[string]any{
		"time": "2026-01-01T00:00:00Z", "event": "Span", "data": json.RawMessage(data),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(env)
}

// synth builds a raw span map for synthetic-log tests.
func synth(id, parent, name, node string, start, dur int64, labels map[string]string) map[string]any {
	m := map[string]any{
		"trace": "00000000000000aa", "span": id, "name": name, "node": node,
		"start_unix_ns": start, "duration_ns": dur,
	}
	if parent != "" {
		m["parent"] = parent
	}
	if len(labels) > 0 {
		var ls []map[string]string
		for k, v := range labels {
			ls = append(ls, map[string]string{"key": k, "value": v})
		}
		m["labels"] = ls
	}
	return m
}

func TestLoadSpansSkipsNonSpanAndTornLines(t *testing.T) {
	log := strings.Join([]string{
		line(t, synth("01", "", "run", "server", 0, 100, nil)),
		`{"time":"t","event":"RoundCompleted","data":{"round":1}}`,
		`{"time":"t","event":"Span","data":{"span":`, // torn tail
		line(t, synth("02", "01", "round", "server", 1, 50, map[string]string{"round": "1"})),
	}, "\n")
	spans, other, err := loadSpans(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("parsed %d spans, want 2", len(spans))
	}
	if other != 1 {
		t.Fatalf("counted %d non-span events, want 1", other)
	}
	if spans[1].Labels["round"] != "1" {
		t.Fatalf("labels not decoded: %+v", spans[1].Labels)
	}
}

func TestBuildForestLinksAndOrphans(t *testing.T) {
	log := strings.Join([]string{
		line(t, synth("01", "", "run", "server", 0, 100, nil)),
		line(t, synth("03", "02", "client.train", "client-0", 3, 10, nil)), // parent 02 missing
		line(t, synth("04", "01", "round", "server", 2, 50, nil)),
		line(t, synth("05", "01", "round", "server", 1, 50, nil)),
	}, "\n")
	spans, _, err := loadSpans(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	f := buildForest(spans)
	if len(f.Roots) != 1 || f.Roots[0].ID != "01" {
		t.Fatalf("roots: %+v", f.Roots)
	}
	if len(f.Orphans) != 1 || f.Orphans[0].ID != "03" {
		t.Fatalf("orphans: %+v", f.Orphans)
	}
	kids := f.Roots[0].Children
	if len(kids) != 2 || kids[0].ID != "05" || kids[1].ID != "04" {
		t.Fatalf("children not start-sorted: %+v", kids)
	}
}

// syntheticRun builds a two-round networked-topology trace: round 1 has a
// straggler drop and a retry; round 2 is clean with a resend.
func syntheticRun(t *testing.T) []*span {
	t.Helper()
	var lines []string
	add := func(m map[string]any) { lines = append(lines, line(t, m)) }
	add(synth("01", "", "run", "server", 0, 10_000_000_000, nil))
	add(synth("10", "01", "round", "server", 0, 4_000_000_000, map[string]string{"round": "1"}))
	add(synth("11", "10", "server.request", "server", 0, 1_000_000_000, map[string]string{
		"client": "0", "encoding": "raw", "outcome": "ok", "retries": "1",
		"bytes_read": "100", "bytes_written": "200"}))
	add(synth("f1", "11", "client.round", "client-0", 10, 900_000_000, map[string]string{"client": "0", "round": "1"}))
	add(synth("12", "10", "server.request", "server", 0, 3_000_000_000, map[string]string{
		"client": "1", "encoding": "raw", "outcome": "dropped", "reason": "timeout", "retries": "1"}))
	add(synth("13", "10", "server.aggregate", "server", 3_100_000_000, 500_000_000, nil))
	add(synth("14", "13", "server.audit", "server", 3_200_000_000, 300_000_000, nil))
	add(synth("15", "10", "server.eval", "server", 3_700_000_000, 100_000_000, nil))
	add(synth("16", "10", "server.audit_stream", "server", 3_050_000_000, 0, map[string]string{
		"overlap_us": "250000", "jobs": "12"}))
	add(synth("20", "01", "round", "server", 4_000_000_000, 2_000_000_000, map[string]string{"round": "2"}))
	add(synth("21", "20", "server.request", "server", 4_000_000_000, 1_500_000_000, map[string]string{
		"client": "1", "encoding": "raw", "outcome": "ok", "retries": "0",
		"bytes_read": "50", "bytes_written": "60"}))
	add(synth("f2", "21", "client.round", "client-1", 4_000_000_010, 700_000_000, map[string]string{
		"client": "1", "round": "2", "resend": "true"}))
	add(synth("30", "01", "client.rejoin", "server", 3_900_000_000, 0, map[string]string{"client": "1", "round": "2"}))
	spans, _, err := loadSpans(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	return spans
}

func TestAnalyzeSyntheticNetworkedRun(t *testing.T) {
	rep, err := analyze(buildForest(syntheticRun(t)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Orphans != 0 {
		t.Fatalf("orphans=%d, want 0", rep.Orphans)
	}
	if len(rep.Rounds) != 2 {
		t.Fatalf("%d rounds, want 2", len(rep.Rounds))
	}
	r1 := rep.Rounds[0]
	if r1.Round != 1 || r1.Clients != 2 || r1.OK != 1 {
		t.Fatalf("round 1: %+v", r1)
	}
	if len(r1.Dropped) != 1 || r1.Dropped[0].Client != "1" || r1.Dropped[0].Reason != "timeout" {
		t.Fatalf("round 1 dropped: %+v", r1.Dropped)
	}
	if r1.SlowestClient != "0" || r1.SlowestSeconds != 1.0 {
		t.Fatalf("round 1 straggler: %q %v", r1.SlowestClient, r1.SlowestSeconds)
	}
	if r1.Retries != 2 || r1.BytesRead != 100 || r1.BytesWritten != 200 {
		t.Fatalf("round 1 retries/bytes: %+v", r1)
	}
	if r1.AuditSeconds != 0.3 || r1.AggregateSeconds != 0.5 || r1.EvalSeconds != 0.1 {
		t.Fatalf("round 1 phase split: %+v", r1)
	}
	if r1.OverlapSeconds != 0.25 || r1.OverlapJobs != 12 {
		t.Fatalf("round 1 streaming overlap: %+v", r1)
	}
	if !r1.Complete {
		t.Fatal("round 1 should be complete (the only delivered request has a client span)")
	}
	r2 := rep.Rounds[1]
	if r2.Resends != 1 {
		t.Fatalf("round 2 resends=%d, want 1", r2.Resends)
	}
	if r2.OverlapSeconds != 0 || r2.OverlapJobs != 0 {
		t.Fatalf("round 2 has no audit_stream span, overlap must be zero: %+v", r2)
	}
	if len(rep.Rejoins) != 1 || rep.Rejoins[0].Client != "1" {
		t.Fatalf("rejoins: %+v", rep.Rejoins)
	}
	if rep.TotalRetries != 2 || rep.TotalBytesRead != 150 || rep.TotalBytesWrite != 260 {
		t.Fatalf("totals: %+v", rep)
	}
}

func TestAnalyzeFlagsMissingClientLog(t *testing.T) {
	// Drop the client-side spans from the merge: delivered requests now
	// have no client.round children, so rounds read as incomplete.
	var spans []*span
	for _, s := range syntheticRun(t) {
		if strings.HasPrefix(s.Node, "client-") {
			continue
		}
		spans = append(spans, s)
	}
	rep, err := analyze(buildForest(spans))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Rounds {
		if r.Complete {
			t.Fatalf("round %d complete without client logs", r.Round)
		}
	}
}

func TestAnalyzeInProcessTopology(t *testing.T) {
	lines := []string{
		line(t, synth("01", "", "run", "sim", 0, 5_000_000_000, nil)),
		line(t, synth("10", "01", "round", "sim", 0, 4_000_000_000, map[string]string{"round": "1"})),
		line(t, synth("11", "10", "client.round", "sim", 0, 2_000_000_000, map[string]string{"client": "3"})),
		line(t, synth("12", "10", "client.round", "sim", 0, 3_000_000_000, map[string]string{"client": "7"})),
		line(t, synth("13", "10", "server.aggregate", "sim", 3_000_000_000, 200_000_000, nil)),
	}
	spans, _, err := loadSpans(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analyze(buildForest(spans))
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Rounds[0]
	if r.Clients != 2 || r.OK != 2 || !r.Complete {
		t.Fatalf("in-process round: %+v", r)
	}
	if r.SlowestClient != "7" {
		t.Fatalf("slowest=%q, want 7", r.SlowestClient)
	}
}

func TestAnalyzeRejectsUntracedLog(t *testing.T) {
	spans, _, err := loadSpans(strings.NewReader(
		`{"time":"t","event":"RoundCompleted","data":{"round":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := analyze(buildForest(spans)); err == nil {
		t.Fatal("expected an error for a log with no run root")
	}
}

func TestWriteTextRendersDropsAndTotals(t *testing.T) {
	rep, err := analyze(buildForest(syntheticRun(t)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	writeText(&buf, rep)
	out := buf.String()
	for _, want := range []string{"drop(1:timeout)", "rejoin: client 1", "retries=2", "overlap", "0.250"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text report missing %q:\n%s", want, out)
		}
	}
}

// TestTraceSmoke is the end-to-end gate behind `make trace-smoke`: a
// 3-round 4-client federation over fault-injected loopback TCP — client
// 1 is a hard straggler that times out and is dropped every round — with
// per-node JSONL sinks, whose merged logs fedtrace must reconstruct into
// one complete rooted span tree per round, drop reasons included.
func TestTraceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fault-injection run")
	}
	cfg := fednet.Config{
		Experiment: fl.FederationConfig{
			NumClients: 4,
			PerRound:   4,
			Rounds:     3,
			Alpha:      10,
			ServerLR:   1,
			Client: fl.ClientConfig{
				Arch:       classifier.Tiny(),
				Train:      classifier.TrainConfig{Epochs: 1, BatchSize: 16, LR: 0.1, Momentum: 0.9},
				CVAE:       cvae.Config{Input: 784, Hidden: 16, Latent: 2, Classes: 10},
				CVAETrain:  cvae.TrainConfig{Epochs: 1, BatchSize: 16, LR: 1e-3},
				NumClasses: 10,
			},
			TestSubset: 40,
			Seed:       99,
		},
		ArchName:           "tiny",
		DataSeed:           1234,
		TrainSize:          150,
		MinClientsPerRound: 1,
		IOTimeout:          1500 * time.Millisecond,
		RoundTimeout:       10 * time.Second,
		MaxRetries:         1,
		Trace:              true,
	}
	dir := t.TempDir()
	serverLog := filepath.Join(dir, "server.jsonl")
	serverSink, err := telemetry.NewFileSink(serverLog)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = telemetry.New(serverSink)
	cfg.Telemetry.EnableTracing("server")

	test := dataset.Generate(40, dataset.DefaultGenOptions(), rng.New(5))
	srv, err := fednet.NewServer(cfg, test, aggregate.NewFedAvg())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// Client 1 stalls far past every timeout on each post-Hello write: the
	// server must retry it, drop it with a reason, and still finish.
	plan := &faultnet.Plan{Seed: 3, Peers: map[int]faultnet.PeerPlan{
		1: {SkipWrites: 1, WriteDelay: 5 * time.Minute},
	}}

	logs := []string{serverLog}
	sinks := []*telemetry.FileSink{serverSink}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	for id := 0; id < cfg.Experiment.NumClients; id++ {
		path := filepath.Join(dir, fmt.Sprintf("client%d.jsonl", id))
		sink, err := telemetry.NewFileSink(path)
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, path)
		sinks = append(sinks, sink)
		tel := telemetry.New(sink)
		tel.EnableTracing(fmt.Sprintf("client-%d", id))
		wg.Add(1)
		go func(id int, tel *telemetry.T) {
			defer wg.Done()
			c, err := plan.Dial("tcp", ln.Addr().String(), id)
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			fednet.ServeClientOpts(c, id, fednet.ClientOptions{Trace: true, Telemetry: tel})
			c.Close()
		}(id, tel)
	}

	h, err := srv.Run(ln, nil)
	mu.Lock()
	for _, c := range conns {
		c.Close() // aborts the straggler's injected delay
	}
	mu.Unlock()
	wg.Wait()
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	if len(h.Rounds) != cfg.Experiment.Rounds {
		t.Fatalf("completed %d rounds, want %d", len(h.Rounds), cfg.Experiment.Rounds)
	}
	for _, s := range sinks {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The fedtrace contract: the merged logs reconstruct every round as a
	// single complete tree under one run root, straggler drops labeled.
	spans, err := loadFiles(logs)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analyze(buildForest(spans))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Orphans != 0 {
		t.Fatalf("%d orphan spans: some subtree failed to parent across the wire", rep.Orphans)
	}
	if len(rep.Rounds) != cfg.Experiment.Rounds {
		t.Fatalf("reconstructed %d rounds, want %d", len(rep.Rounds), cfg.Experiment.Rounds)
	}
	wantNodes := map[string]bool{"server": true, "client-0": true, "client-2": true, "client-3": true}
	got := map[string]bool{}
	for _, n := range rep.Nodes {
		got[n] = true
	}
	for n := range wantNodes {
		if !got[n] {
			t.Fatalf("trace is missing spans from node %q (have %v)", n, rep.Nodes)
		}
	}
	for i, r := range rep.Rounds {
		if r.Round != i+1 {
			t.Fatalf("round sequence broken: %+v", rep.Rounds)
		}
		if !r.Complete {
			t.Fatalf("round %d tree incomplete: a delivered request has no client-side span", r.Round)
		}
		if r.Clients != 4 || r.OK != 3 {
			t.Fatalf("round %d fan-out: %d clients, %d ok (want 4/3)", r.Round, r.Clients, r.OK)
		}
		if len(r.Dropped) != 1 || r.Dropped[0].Client != "1" || r.Dropped[0].Reason == "" {
			t.Fatalf("round %d: straggler drop not visible with a reason: %+v", r.Round, r.Dropped)
		}
		if r.SlowestClient == "" || r.SlowestSeconds <= 0 {
			t.Fatalf("round %d has no straggler analysis: %+v", r.Round, r)
		}
		if r.BytesWritten <= 0 || r.BytesRead <= 0 {
			t.Fatalf("round %d has no measured bytes: %+v", r.Round, r)
		}
		if r.AggregateSeconds <= 0 || r.EvalSeconds <= 0 {
			t.Fatalf("round %d phase split missing: %+v", r.Round, r)
		}
	}
	// The straggler times out and is retried once before its round-1 drop;
	// later rounds see it already disconnected (zero retries, reason
	// "disconnected"), so the run records exactly its drop-round retries.
	if rep.TotalRetries < 1 {
		t.Fatalf("retry amplification invisible: %d total retries, want >= 1", rep.TotalRetries)
	}

	// And the JSON form must round-trip for scripting.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Trace != rep.Trace || len(back.Rounds) != len(rep.Rounds) {
		t.Fatal("JSON report did not round-trip")
	}
}

// TestTraceStreamOverlap is the streaming-pipeline half of the tracing
// gate: a traced FedGuard federation, which streams its audit, must surface
// nonzero audit/upload overlap in the reconstructed per-round report —
// the proof that decoder synthesis and scoring ran inside the network
// shadow rather than after the barrier.
func TestTraceStreamOverlap(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second traced federation with CVAE training")
	}
	cfg := fednet.Config{
		Experiment: fl.FederationConfig{
			NumClients: 4,
			PerRound:   4,
			Rounds:     2,
			Alpha:      10,
			ServerLR:   1,
			Client: fl.ClientConfig{
				Arch:       classifier.Tiny(),
				Train:      classifier.TrainConfig{Epochs: 1, BatchSize: 16, LR: 0.1, Momentum: 0.9},
				CVAE:       cvae.Config{Input: 784, Hidden: 16, Latent: 2, Classes: 10},
				CVAETrain:  cvae.TrainConfig{Epochs: 1, BatchSize: 16, LR: 1e-3},
				NumClasses: 10,
			},
			TestSubset: 40,
			Seed:       99,
		},
		ArchName:  "tiny",
		DataSeed:  1234,
		TrainSize: 150,
		Trace:     true,
	}
	dir := t.TempDir()
	serverLog := filepath.Join(dir, "server.jsonl")
	sink, err := telemetry.NewFileSink(serverLog)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Telemetry = telemetry.New(sink)
	cfg.Telemetry.EnableTracing("server")

	test := dataset.Generate(40, dataset.DefaultGenOptions(), rng.New(5))
	guard := defense.NewFedGuard(classifier.Tiny(),
		cvae.Config{Input: 784, Hidden: 16, Latent: 2, Classes: 10})
	srv, err := fednet.NewServer(cfg, test, guard)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	for id := 0; id < cfg.Experiment.NumClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return
			}
			defer c.Close()
			fednet.ServeClientOpts(c, id, fednet.ClientOptions{})
		}(id)
	}
	if _, err := srv.Run(ln, nil); err != nil {
		t.Fatalf("server: %v", err)
	}
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	spans, err := loadFiles([]string{serverLog})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analyze(buildForest(spans))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rounds) != cfg.Experiment.Rounds {
		t.Fatalf("reconstructed %d rounds, want %d", len(rep.Rounds), cfg.Experiment.Rounds)
	}
	var jobs int
	var overlap float64
	for _, r := range rep.Rounds {
		jobs += r.OverlapJobs
		overlap += r.OverlapSeconds
	}
	if jobs == 0 || overlap <= 0 {
		t.Fatalf("streaming run shows no audit/upload overlap (jobs=%d, overlap=%vs):\n%+v",
			jobs, overlap, rep.Rounds)
	}
}
