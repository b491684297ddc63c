package fednet

import (
	"net"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"fedguard/internal/aggregate"
	"fedguard/internal/attack"
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

func quickGuard(t *testing.T) fl.Strategy {
	t.Helper()
	s, err := experiment.NewStrategy("FedGuard", quickSetup)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// quickCompressedBarrier is the quick-preset FedGuard federation over
// the codec dialect with the barrier audit — the run both quick-preset
// acceptance tests compare against — made once per test binary.
var quickBarrier struct {
	once sync.Once
	h    *fl.History
}

func quickCompressedBarrier(t *testing.T) *fl.History {
	t.Helper()
	quickBarrier.once.Do(func() {
		cfg := quickConfig()
		cfg.Compress = true
		quickBarrier.h = runLoopbackOpts(t, cfg, quickGuard(t), quickTestSet(), ClientOptions{Compress: true})
	})
	if quickBarrier.h == nil {
		t.Fatal("the shared compressed barrier run failed in the test that made it")
	}
	return quickBarrier.h
}

// runLoopback starts a server on a loopback listener, connects all
// clients, and returns the resulting history.
func runLoopback(t *testing.T, cfg Config, strategy fl.Strategy, test *dataset.Dataset) *fl.History {
	return runLoopbackOpts(t, cfg, strategy, test, ClientOptions{})
}

// runLoopbackOpts is runLoopback with client-side options (e.g. the
// compression capability), so tests can pair any server and client
// encoding stance.
func runLoopbackOpts(t *testing.T, cfg Config, strategy fl.Strategy, test *dataset.Dataset, opts ClientOptions) *fl.History {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	srv, err := NewServer(cfg, test, strategy)
	if err != nil {
		t.Fatal(err)
	}

	var clientWG sync.WaitGroup
	clientErrs := make([]error, cfg.Experiment.NumClients)
	for id := 0; id < cfg.Experiment.NumClients; id++ {
		clientWG.Add(1)
		go func(id int) {
			defer clientWG.Done()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				clientErrs[id] = err
				return
			}
			defer conn.Close()
			clientErrs[id] = ServeClientOpts(conn, id, opts)
		}(id)
	}

	h, err := srv.Run(ln, nil)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	clientWG.Wait()
	for id, err := range clientErrs {
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
	}
	return h
}

func TestLoopbackFederationRuns(t *testing.T) {
	cfg := testConfig()
	test := dataset.Generate(40, dataset.DefaultGenOptions(), rng.New(5))
	h := runLoopback(t, cfg, aggregate.NewFedAvg(), test)
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
	cfg := testConfig()
	cfg.AttackName = "sign-flip"
	cfg.Experiment.MaliciousFraction = 0.4

	test := dataset.Generate(40, dataset.DefaultGenOptions(), rng.New(5))
	netHist := runLoopback(t, cfg, aggregate.NewFedAvg(), test)

	// Same experiment, in-process.
	inCfg := cfg.Experiment
	inCfg.Attack = attack.NewSignFlip()
	train := dataset.Generate(cfg.TrainSize, dataset.DefaultGenOptions(), rng.New(cfg.DataSeed))
	fed, err := fl.NewFederation(train, test, inCfg)
	if err != nil {
		t.Fatal(err)
	}
	inHist, err := fed.Run(aggregate.NewFedAvg(), nil)
	if err != nil {
		t.Fatal(err)
	}

	if len(netHist.Rounds) != len(inHist.Rounds) {
		t.Fatalf("round counts differ: %d vs %d", len(netHist.Rounds), len(inHist.Rounds))
	}
	for i := range netHist.Rounds {
		if netHist.Rounds[i].TestAccuracy != inHist.Rounds[i].TestAccuracy {
			t.Fatalf("round %d accuracy: networked %v, in-process %v",
				i+1, netHist.Rounds[i].TestAccuracy, inHist.Rounds[i].TestAccuracy)
		}
	}
	for i := range netHist.FinalWeights {
		if netHist.FinalWeights[i] != inHist.FinalWeights[i] {
			t.Fatalf("final weights diverge at %d", i)
		}
	}
}

func TestLoopbackFedGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("trains CVAEs over the network")
	}
	cfg := testConfig()
	guard := &fakeNeedsDecoders{}
	test := dataset.Generate(40, dataset.DefaultGenOptions(), rng.New(5))
	h := runLoopback(t, cfg, guard, test)
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
// compressed run is bit-identical to a raw run of the same experiment,
// while moving strictly fewer bytes over the sockets.
func TestCompressedLoopbackMatchesRaw(t *testing.T) {
	cfg := testConfig()
	cfg.AttackName = "sign-flip"
	cfg.Experiment.MaliciousFraction = 0.4
	test := dataset.Generate(40, dataset.DefaultGenOptions(), rng.New(5))

	raw := runLoopback(t, cfg, aggregate.NewFedAvg(), test)

	ccfg := cfg
	ccfg.Compress = true
	comp := runLoopbackOpts(t, ccfg, aggregate.NewFedAvg(), test, ClientOptions{Compress: true})

	if len(raw.Rounds) != len(comp.Rounds) {
		t.Fatalf("round counts differ: %d vs %d", len(raw.Rounds), len(comp.Rounds))
	}
	for i := range raw.Rounds {
		if raw.Rounds[i].TestAccuracy != comp.Rounds[i].TestAccuracy {
			t.Fatalf("round %d accuracy: raw %v, compressed %v",
				i+1, raw.Rounds[i].TestAccuracy, comp.Rounds[i].TestAccuracy)
		}
	}
	if !reflect.DeepEqual(raw.FinalWeights, comp.FinalWeights) {
		t.Fatal("compressed run diverged from raw final weights")
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
	cfg := testConfig()
	test := dataset.Generate(40, dataset.DefaultGenOptions(), rng.New(5))
	baseline := runLoopback(t, cfg, aggregate.NewFedAvg(), test)

	ccfg := cfg
	ccfg.Compress = true
	serverOnly := runLoopbackOpts(t, ccfg, aggregate.NewFedAvg(), test, ClientOptions{})
	if !reflect.DeepEqual(baseline.FinalWeights, serverOnly.FinalWeights) {
		t.Fatal("compress-capable server with raw clients diverged from raw run")
	}

	clientOnly := runLoopbackOpts(t, cfg, aggregate.NewFedAvg(), test, ClientOptions{Compress: true})
	if !reflect.DeepEqual(baseline.FinalWeights, clientOnly.FinalWeights) {
		t.Fatal("raw server with compress-capable clients diverged from raw run")
	}
}

// TestCompressedLoopbackFedGuardDedup drives decoder payloads over the
// compressed path: results stay identical to raw, and decoder dedup plus
// the codec push the measured bytes below the logical Table V sizes.
func TestCompressedLoopbackFedGuardDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("trains CVAEs over the network")
	}
	cfg := testConfig()
	test := dataset.Generate(40, dataset.DefaultGenOptions(), rng.New(5))
	rawGuard := &fakeNeedsDecoders{}
	raw := runLoopback(t, cfg, rawGuard, test)

	ccfg := cfg
	ccfg.Compress = true
	compGuard := &fakeNeedsDecoders{}
	comp := runLoopbackOpts(t, ccfg, compGuard, test, ClientOptions{Compress: true})

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

// TestCompressedQuickPresetFedGuard is the acceptance run: a networked
// FedGuard federation on the quick experiment preset, compressed,
// byte-identical to both the raw networked run and the in-process
// simulator — at no more than half the raw run's measured wire bytes.
func TestCompressedQuickPresetFedGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("three full quick-preset federations")
	}
	cfg, test := quickConfig(), quickTestSet()

	raw := runLoopback(t, cfg, quickGuard(t), test)
	comp := quickCompressedBarrier(t)

	train := dataset.Generate(cfg.TrainSize, dataset.DefaultGenOptions(), rng.New(cfg.DataSeed))
	fed, err := fl.NewFederation(train, test, cfg.Experiment)
	if err != nil {
		t.Fatal(err)
	}
	inHist, err := fed.Run(quickGuard(t), nil)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(raw.FinalWeights, comp.FinalWeights) {
		t.Fatal("compressed networked run diverged from raw networked run")
	}
	if !reflect.DeepEqual(comp.FinalWeights, inHist.FinalWeights) {
		t.Fatal("compressed networked run diverged from the in-process simulator")
	}
	rawWire, _ := wireTotals(raw)
	compWire, _ := wireTotals(comp)
	t.Logf("quick-preset FedGuard wire bytes: raw=%d compressed=%d (%.1f%% saved)",
		rawWire, compWire, 100*(1-float64(compWire)/float64(rawWire)))
	if compWire*2 > rawWire {
		t.Fatalf("compressed run moved %d bytes, more than half the raw run's %d",
			compWire, rawWire)
	}
}

func TestNewServerValidation(t *testing.T) {
	test := dataset.Generate(10, dataset.DefaultGenOptions(), rng.New(1))
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
	cfg := testConfig()
	test := dataset.Generate(10, dataset.DefaultGenOptions(), rng.New(1))
	srv, err := NewServer(cfg, test, aggregate.NewFedAvg())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	done := make(chan error, 1)
	go func() {
		_, err := srv.Run(ln, nil)
		done <- err
	}()
	// A client with an out-of-range ID must abort the registration.
	if err := RunClient(ln.Addr().String(), 999, ClientOptions{}); err == nil {
		// The server closes the connection; the client sees an error when
		// reading its setup. Either side erroring is acceptable, but the
		// server must report the bad registration.
		t.Log("client did not observe the rejection; checking server")
	}
	if err := <-done; err == nil {
		t.Fatal("server accepted an out-of-range client ID")
	}
}

func TestLoopbackTelemetry(t *testing.T) {
	cfg := testConfig()
	sink := &telemetry.CollectSink{}
	cfg.Telemetry = telemetry.New(sink)
	test := dataset.Generate(40, dataset.DefaultGenOptions(), rng.New(5))
	h := runLoopback(t, cfg, aggregate.NewFedAvg(), test)

	if got := len(sink.ByKind("RoundCompleted")); got != cfg.Experiment.Rounds {
		t.Fatalf("%d RoundCompleted events for %d rounds", got, cfg.Experiment.Rounds)
	}
	for i, rec := range h.Rounds {
		if rec.Seconds != rec.TrainSeconds+rec.AggregateSeconds+rec.EvalSeconds {
			t.Fatalf("round %d phase split does not sum: %+v", i+1, rec)
		}
	}
	// Measured per-peer byte gauges must exist and be positive for every
	// registered client (setup traffic alone guarantees both directions).
	reg := cfg.Telemetry.Metrics
	for id := 0; id < cfg.Experiment.NumClients; id++ {
		l := telemetry.L("client", strconv.Itoa(id))
		read := reg.Gauge("fedguard_peer_bytes_read", l).Value()
		written := reg.Gauge("fedguard_peer_bytes_written", l).Value()
		if read <= 0 || written <= 0 {
			t.Fatalf("client %d peer gauges: read=%v written=%v", id, read, written)
		}
	}
}
