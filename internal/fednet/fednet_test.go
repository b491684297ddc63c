package fednet

import (
	"errors"
	"net"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"fedguard/internal/aggregate"
	"fedguard/internal/classifier"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/experiment"
	"fedguard/internal/fl"
	"fedguard/internal/rng"
	"fedguard/internal/telemetry"
)

func testConfig() Config {
	return Config{
		Experiment: fl.FederationConfig{
			NumClients: 5,
			PerRound:   3,
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
		AttackName: "",
		ArchName:   "tiny",
		DataSeed:   1234,
		TrainSize:  150,
	}
}

// quickSetup is the quick experiment preset; quickConfig is the
// networked Config cmd/fednode builds from it (through the shared
// Setup→federation mapping and data seeds), for a benign federation.
var quickSetup = experiment.MustSetup(experiment.PresetQuick)

func quickConfig() Config {
	return Config{
		Experiment: quickSetup.Federation(experiment.Scenario{}),
		ArchName:   quickSetup.ArchName,
		DataSeed:   quickSetup.TrainDataSeed(),
		TrainSize:  quickSetup.TrainSize,
	}
}

func quickTestSet() *dataset.Dataset {
	return quickSetup.TestData()
}

// testSet is the 40-image evaluation set of the testConfig federations.
func testSet() *dataset.Dataset {
	return dataset.Generate(40, dataset.DefaultGenOptions(), rng.New(5))
}

// signFlipConfig is testConfig under a 40 % sign-flip attack for three
// rounds: the FedAvg federation whose transport, codec, fault-free
// chaos, tracing and resume variants all land on one canonical run.
func signFlipConfig() Config {
	cfg := testConfig()
	cfg.Experiment.Rounds = 3
	cfg.AttackName = "sign-flip"
	cfg.Experiment.MaliciousFraction = 0.4
	return cfg
}

// canonical is one in-process federation, run at most once per test
// binary and shared read-only by every test that compares a variant of
// it. The run holds nothing of the test that first asks for it, so a
// failure is reported to each caller alike.
type canonical struct {
	once sync.Once
	run  func() (*fl.History, error)
	h    *fl.History
	err  error
}

func (c *canonical) get(t testing.TB) *fl.History {
	t.Helper()
	c.once.Do(func() { c.h, c.err = c.run() })
	if c.err != nil {
		t.Fatalf("canonical run: %v", c.err)
	}
	return c.h
}

var (
	// quickGuardRun is the quick-preset FedGuard federation in process
	// with the barrier audit: what quickStreamRun ends on, and the
	// logical side of TestCompressedQuickPresetFedGuard's byte check.
	quickGuardRun = &canonical{run: func() (*fl.History, error) {
		guard, err := experiment.NewStrategy("FedGuard", quickSetup)
		if err != nil {
			return nil, err
		}
		return runInProcess(quickConfig(), barrierOnly{guard}, quickTestSet())
	}}
	// quickStreamRun is the quick-preset FedGuard federation over
	// loopback TCP with the codec, streaming audit and encode-once
	// broadcasts: TestStreamAuditQuickPreset's subject and the wire
	// side of TestCompressedQuickPresetFedGuard's byte check.
	quickStreamRun = &canonical{run: func() (*fl.History, error) {
		guard, err := experiment.NewStrategy("FedGuard", quickSetup)
		if err != nil {
			return nil, err
		}
		cfg := quickConfig()
		cfg.Compress = true
		srv, err := NewServer(cfg, quickTestSet(), guard)
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		h, clientErrs, err := loopback{client: withOpts(ClientOptions{Compress: true})}.serve(ln, srv)
		if err != nil {
			return nil, err
		}
		return h, errors.Join(clientErrs...)
	}}
	// signFlipRun is signFlipConfig's FedAvg federation.
	signFlipRun = &canonical{run: func() (*fl.History, error) {
		return runInProcess(signFlipConfig(), aggregate.NewFedAvg(), testSet())
	}}
)

// loopback is the one way these tests start a networked federation: the
// server serves a fresh 127.0.0.1 listener while every client runs
// client(addr, id) in its own goroutine.
type loopback struct {
	clients int                             // how many clients start; 0 = the experiment's NumClients
	client  func(addr string, id int) error // one client's whole life; nil = RunClient with zero options
	onRound func(fl.RoundRecord)            // the server's round callback
	// then, when non-nil, runs after the server has returned and its
	// listener has closed, before the clients are joined: a chaos run
	// closes its clients' connections there, a crash drill starts the
	// resumed server on the same address.
	then func(addr string)
}

// run serves srv until it returns, then joins the clients. It returns
// the server's history, each client's error and the server's error.
func (l loopback) run(t testing.TB, srv *Server) (*fl.History, []error, error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l.serve(ln, srv)
}

// serve is run on a listener the caller opened. It holds nothing of a
// test, so a canonical run can use it.
func (l loopback) serve(ln net.Listener, srv *Server) (*fl.History, []error, error) {
	addr := ln.Addr().String()
	n, client := l.clients, l.client
	if n == 0 {
		n = srv.cfg.Experiment.NumClients
	}
	if client == nil {
		client = withOpts(ClientOptions{})
	}
	var wg sync.WaitGroup
	clientErrs := make([]error, n)
	for id := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clientErrs[id] = client(addr, id)
		}()
	}
	h, err := srv.Run(ln, l.onRound)
	ln.Close()
	if l.then != nil {
		l.then(addr)
	}
	wg.Wait()
	return h, clientErrs, err
}

// mustRun is run for federations that must succeed end to end: the
// server's error or any client's fails the test.
func (l loopback) mustRun(t testing.TB, srv *Server) *fl.History {
	t.Helper()
	h, clientErrs, err := l.run(t, srv)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	requireNoErrors(t, clientErrs)
	return h
}

// requireNoErrors fails the test on the first client that returned an
// error.
func requireNoErrors(t testing.TB, clientErrs []error) {
	t.Helper()
	for id, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
}

// withOpts is the honest client: it serves its id with opts over one
// connection.
func withOpts(opts ClientOptions) func(addr string, id int) error {
	return func(addr string, id int) error { return RunClient(addr, id, opts) }
}

func newServer(t testing.TB, cfg Config, test *dataset.Dataset, strategy fl.Strategy) *Server {
	t.Helper()
	srv, err := NewServer(cfg, test, strategy)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// runLoopback runs cfg's federation over loopback with every client
// honest and configured by opts, and returns the history.
func runLoopback(t testing.TB, cfg Config, strategy fl.Strategy, test *dataset.Dataset, opts ClientOptions) *fl.History {
	t.Helper()
	return loopback{client: withOpts(opts)}.mustRun(t, newServer(t, cfg, test, strategy))
}

func TestLoopbackFederationRuns(t *testing.T) {
	cfg := testConfig()
	h := runLoopback(t, cfg, aggregate.NewFedAvg(), testSet(), ClientOptions{})
	if len(h.Rounds) != cfg.Experiment.Rounds {
		t.Fatalf("%d rounds", len(h.Rounds))
	}
	for _, rec := range h.Rounds {
		if rec.UploadBytes <= 0 || rec.DownloadBytes <= 0 {
			t.Fatalf("no measured traffic: %+v", rec)
		}
		if rec.TestAccuracy < 0 || rec.TestAccuracy > 1 {
			t.Fatalf("accuracy %v", rec.TestAccuracy)
		}
	}
	if len(h.FinalWeights) == 0 {
		t.Fatal("no final weights")
	}
}

// The decisive property: a networked run is bit-identical to the
// in-process simulator with the same configuration.
func TestLoopbackMatchesInProcess(t *testing.T) {
	netHist := runLoopback(t, signFlipConfig(), aggregate.NewFedAvg(), testSet(), ClientOptions{})
	expectSameRun(t, netHist, signFlipRun.get(t))
}

func TestLoopbackFedGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("trains CVAEs over the network")
	}
	cfg := testConfig()
	guard := &fakeNeedsDecoders{}
	h := runLoopback(t, cfg, guard, testSet(), ClientOptions{})
	if !guard.sawDecoder {
		t.Fatal("decoder payloads did not cross the wire")
	}
	// Decoder payloads must inflate measured downloads beyond weights.
	weightBytes := int64(len(h.FinalWeights)) * 4 * int64(cfg.Experiment.PerRound)
	if h.Rounds[0].DownloadBytes <= weightBytes {
		t.Fatalf("downloads %d do not include decoders (weights alone %d)",
			h.Rounds[0].DownloadBytes, weightBytes)
	}
}

// fakeNeedsDecoders requests decoders and averages updates.
type fakeNeedsDecoders struct {
	sawDecoder bool
}

func (f *fakeNeedsDecoders) Name() string        { return "decoder-probe" }
func (f *fakeNeedsDecoders) NeedsDecoders() bool { return true }
func (f *fakeNeedsDecoders) Aggregate(ctx *fl.RoundContext) ([]float32, error) {
	for _, u := range ctx.Updates {
		if len(u.Decoder) > 0 {
			f.sawDecoder = true
		}
	}
	return aggregate.WeightedMean(ctx.Updates)
}

// wireTotals sums the measured (and logical) traffic over a run.
func wireTotals(h *fl.History) (wire, logical int64) {
	for _, rec := range h.Rounds {
		wire += rec.WireUploadBytes + rec.WireDownloadBytes
		logical += rec.UploadBytes + rec.DownloadBytes
	}
	return wire, logical
}

// TestCompressedLoopbackMatchesRaw pins the tentpole property: a
// compressed run is bit-identical to a raw run of the same experiment —
// both land on the in-process run — while moving strictly fewer bytes
// over the sockets.
func TestCompressedLoopbackMatchesRaw(t *testing.T) {
	cfg := signFlipConfig()
	raw := runLoopback(t, cfg, aggregate.NewFedAvg(), testSet(), ClientOptions{})
	cfg.Compress = true
	comp := runLoopback(t, cfg, aggregate.NewFedAvg(), testSet(), ClientOptions{Compress: true})
	for _, h := range []*fl.History{raw, comp} {
		expectSameRun(t, h, signFlipRun.get(t))
	}
	rawWire, _ := wireTotals(raw)
	compWire, _ := wireTotals(comp)
	if compWire <= 0 || rawWire <= 0 {
		t.Fatalf("unmeasured wire traffic: raw %d, compressed %d", rawWire, compWire)
	}
	if compWire >= rawWire {
		t.Fatalf("compression saved nothing: raw %d bytes, compressed %d", rawWire, compWire)
	}
}

// TestCompressedMixedPeers pins negotiation compatibility: a
// compression-capable server with raw clients, and a raw server with
// compression-capable clients, both complete with raw semantics and the
// exact raw result.
func TestCompressedMixedPeers(t *testing.T) {
	cfg := signFlipConfig()
	clientOnly := runLoopback(t, cfg, aggregate.NewFedAvg(), testSet(), ClientOptions{Compress: true})
	expectSameRun(t, clientOnly, signFlipRun.get(t))
	cfg.Compress = true
	serverOnly := runLoopback(t, cfg, aggregate.NewFedAvg(), testSet(), ClientOptions{})
	expectSameRun(t, serverOnly, signFlipRun.get(t))
}

// TestCompressedLoopbackFedGuardDedup drives decoder payloads over the
// compressed path: results stay identical to raw, and decoder dedup plus
// the codec push the measured bytes below the logical Table V sizes.
func TestCompressedLoopbackFedGuardDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("trains CVAEs over the network")
	}
	cfg := testConfig()
	raw := runLoopback(t, cfg, &fakeNeedsDecoders{}, testSet(), ClientOptions{})

	cfg.Compress = true
	compGuard := &fakeNeedsDecoders{}
	comp := runLoopback(t, cfg, compGuard, testSet(), ClientOptions{Compress: true})

	if !compGuard.sawDecoder {
		t.Fatal("decoder payloads did not reach the strategy through the compressed path")
	}
	if !reflect.DeepEqual(raw.FinalWeights, comp.FinalWeights) {
		t.Fatal("compressed decoder run diverged from raw final weights")
	}
	compWire, compLogical := wireTotals(comp)
	if compWire >= compLogical {
		t.Fatalf("measured %d bytes not below logical %d despite dedup and codec",
			compWire, compLogical)
	}
}

// TestCompressedQuickPresetFedGuard is the acceptance run for the codec
// on the quick experiment preset: quickStreamRun, the networked FedGuard
// federation over the codec, moves at most half the logical Table V
// bytes of quickGuardRun, the same federation in process. Raw framing
// only adds to those bytes, so the codec moves at most half of what the
// raw dialect would. Streaming changes the order the server computes
// in, not the frames it sends, so the byte comparison holds with it.
// That the run lands on quickGuardRun's bits is
// TestStreamAuditQuickPreset's. That a raw-dialect FedGuard run lands on
// the in-process one is fednode's TestServerEqualsFedsim's, and
// TestCrashPointMatrix holds raw and codec FedGuard runs to one raw
// baseline.
func TestCompressedQuickPresetFedGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("a networked quick-preset federation beside the shared in-process one")
	}
	_, logical := wireTotals(quickGuardRun.get(t))
	compWire, _ := wireTotals(quickStreamRun.get(t))
	t.Logf("quick-preset FedGuard bytes: logical=%d compressed wire=%d (%.1f%% saved)",
		logical, compWire, 100*(1-float64(compWire)/float64(logical)))
	if compWire <= 0 {
		t.Fatalf("unmeasured wire traffic: %d bytes", compWire)
	}
	if compWire*2 > logical {
		t.Fatalf("compressed run moved %d bytes, more than half the logical %d",
			compWire, logical)
	}
}

func TestNewServerValidation(t *testing.T) {
	test := testSet()
	cfg := testConfig()
	cfg.ArchName = "bogus"
	if _, err := NewServer(cfg, test, aggregate.NewFedAvg()); err == nil {
		t.Fatal("bogus arch accepted")
	}
	cfg = testConfig()
	cfg.AttackName = "bogus"
	if _, err := NewServer(cfg, test, aggregate.NewFedAvg()); err == nil {
		t.Fatal("bogus attack accepted")
	}
	cfg = testConfig()
	cfg.TrainSize = 0
	if _, err := NewServer(cfg, test, aggregate.NewFedAvg()); err == nil {
		t.Fatal("zero train size accepted")
	}
	cfg = testConfig()
	cfg.Experiment.Rounds = 0
	if _, err := NewServer(cfg, test, aggregate.NewFedAvg()); err == nil {
		t.Fatal("invalid experiment accepted")
	}
}

func TestRegisterRejectsBadIDs(t *testing.T) {
	srv := newServer(t, testConfig(), testSet(), aggregate.NewFedAvg())
	// A client with an out-of-range ID must abort the registration. The
	// server closes the connection, so the client may see an error too,
	// but the server must report the bad registration.
	badID := func(addr string, _ int) error { return RunClient(addr, 999, ClientOptions{}) }
	if _, _, err := (loopback{clients: 1, client: badID}).run(t, srv); err == nil {
		t.Fatal("server accepted an out-of-range client ID")
	}
}

func TestLoopbackTelemetry(t *testing.T) {
	cfg := testConfig()
	sink := &telemetry.CollectSink{}
	cfg.Telemetry = telemetry.New(sink)
	cfg.Telemetry.EnableTracing("server")
	h := runLoopback(t, cfg, aggregate.NewFedAvg(), testSet(), ClientOptions{})

	if got := len(sink.ByKind("RoundCompleted")); got != cfg.Experiment.Rounds {
		t.Fatalf("%d RoundCompleted events for %d rounds", got, cfg.Experiment.Rounds)
	}
	for i, rec := range h.Rounds {
		if rec.Seconds != rec.TrainSeconds+rec.AggregateSeconds+rec.EvalSeconds {
			t.Fatalf("round %d phase split does not sum: %+v", i+1, rec)
		}
	}
	// Measured per-peer bytes are the server.request spans': positive
	// both ways for every sampled client, and summing, per round, to the
	// record's measured wire columns.
	rounds := map[string]int{}
	for _, e := range sink.ByKind("Span") {
		if sp := e.(telemetry.SpanEnded); sp.Name == "round" {
			round, _ := strconv.Atoi(labelOf(sp, "round"))
			rounds[sp.Span] = round
		}
	}
	read := make([]int64, cfg.Experiment.Rounds+1)
	written := make([]int64, cfg.Experiment.Rounds+1)
	requests := 0
	for _, e := range sink.ByKind("Span") {
		sp := e.(telemetry.SpanEnded)
		if sp.Name != "server.request" {
			continue
		}
		r, _ := strconv.ParseInt(labelOf(sp, "bytes_read"), 10, 64)
		w, _ := strconv.ParseInt(labelOf(sp, "bytes_written"), 10, 64)
		if r <= 0 || w <= 0 {
			t.Fatalf("client %s request bytes: read=%d written=%d", labelOf(sp, "client"), r, w)
		}
		round := rounds[sp.Parent]
		read[round] += r
		written[round] += w
		requests++
	}
	if requests != cfg.Experiment.Rounds*cfg.Experiment.PerRound {
		t.Fatalf("%d server.request spans for %d rounds of %d", requests, cfg.Experiment.Rounds, cfg.Experiment.PerRound)
	}
	for _, rec := range h.Rounds {
		if read[rec.Round] != rec.WireDownloadBytes || written[rec.Round] != rec.WireUploadBytes {
			t.Fatalf("round %d: requests read %d and wrote %d bytes, the record says %d and %d",
				rec.Round, read[rec.Round], written[rec.Round], rec.WireDownloadBytes, rec.WireUploadBytes)
		}
	}
}
