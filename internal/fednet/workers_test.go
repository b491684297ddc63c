package fednet

import (
	"cmp"
	"slices"
	"testing"

	"fedguard/internal/aggregate"
	"fedguard/internal/telemetry"
	"fedguard/internal/tensor"
)

// forgetWorkerSets drops the process's worker sets, so a test reads
// counters that only its own run moved (and a width it set).
func forgetWorkerSets() {
	workerSets.Lock()
	workerSets.byArch = nil
	workerSets.Unlock()
}

// poolWidth sets the tensor pool's width — what a worker set built
// afterwards is sized by — for the rest of the test.
func poolWidth(t *testing.T, n int) {
	prev := tensor.Workers()
	tensor.SetWorkers(n)
	t.Cleanup(func() { tensor.SetWorkers(prev) })
}

// TestCoLocatedClientsShareWorkers pins the co-located bound: eight
// clients served from one process at pool width two — and the server
// beside them, which evaluates on the same set — build at most two
// classifiers over a whole run, hand every one back, and end on the
// in-process run's weights.
func TestCoLocatedClientsShareWorkers(t *testing.T) {
	poolWidth(t, 2)
	forgetWorkerSets()
	defer forgetWorkerSets()

	cfg := testConfig()
	cfg.Experiment.NumClients, cfg.Experiment.PerRound, cfg.Experiment.Rounds = 8, 8, 3
	test := testSet()
	netHist := runLoopback(t, cfg, aggregate.NewFedAvg(), test, ClientOptions{})

	set, err := sharedWorkers(cfg.ArchName)
	if err != nil {
		t.Fatal(err)
	}
	if built := set.Built(); built < 1 || built > 2 {
		t.Fatalf("eight co-located clients and their server built %d models, want at most 2", built)
	}
	if set.Idle() != set.Built() {
		t.Fatalf("%d of %d workers came back", set.Idle(), set.Built())
	}
	expectSameRun(t, netHist, inProcess(t, cfg, aggregate.NewFedAvg(), test))
}

// TestClientRoundsHoldTheirWorker pins the one bound on client work: at
// pool width two, eight FedGuard clients in their first round — each
// trains its classifier, then its CVAE — never have more than two of
// them between the start of client.train and the end of
// client.cvae_train at any instant. Co-located over TCP the process's
// worker set is the only limit there is; in process it is the run's.
// Run it under -race -count=10 (make race does).
func TestClientRoundsHoldTheirWorker(t *testing.T) {
	const width, clients = 2, 8
	poolWidth(t, width)
	cfg := testConfig()
	cfg.Experiment.NumClients, cfg.Experiment.PerRound, cfg.Experiment.Rounds = clients, clients, 1
	test := testSet()

	check := func(t *testing.T, sink *telemetry.CollectSink) {
		most, rounds := clientWorkPeak(t, spansOf(sink))
		if rounds != clients {
			t.Fatalf("%d client rounds trained a classifier and a CVAE, want %d", rounds, clients)
		}
		if most > width {
			t.Fatalf("%d clients were training at once at width %d", most, width)
		}
	}

	t.Run("tcp", func(t *testing.T) {
		forgetWorkerSets()
		defer forgetWorkerSets()
		sink := &telemetry.CollectSink{}
		opts := ClientOptions{Telemetry: telemetry.New(sink)}
		opts.Telemetry.EnableTracing("clients")
		runLoopback(t, cfg, newTestGuard(), test, opts)
		check(t, sink)
	})

	t.Run("inproc", func(t *testing.T) {
		sink := &telemetry.CollectSink{}
		inCfg := cfg
		inCfg.Experiment.Telemetry = telemetry.New(sink)
		inCfg.Experiment.Telemetry.EnableTracing("sim")
		inProcess(t, inCfg, newTestGuard(), test)
		check(t, sink)
	})
}

// clientWorkPeak reads one run's client spans: each client round's
// interval runs from its client.train start to its client.cvae_train
// end. It returns the most intervals open at one instant and how many
// there were; an interval that ends as another starts does not overlap
// it.
func clientWorkPeak(t *testing.T, spans []telemetry.SpanEnded) (most, rounds int) {
	t.Helper()
	type interval struct{ lo, hi int64 }
	byRound := map[string]*interval{} // keyed by the client.round span
	for _, s := range spans {
		if s.Name != "client.train" && s.Name != "client.cvae_train" {
			continue
		}
		iv := byRound[s.Parent]
		if iv == nil {
			iv = &interval{}
			byRound[s.Parent] = iv
		}
		if s.Name == "client.train" {
			iv.lo = s.Start
		} else {
			iv.hi = s.Start + s.Duration
		}
	}
	type edge struct {
		at    int64
		delta int
	}
	var edges []edge
	for parent, iv := range byRound {
		if iv.lo == 0 || iv.hi == 0 {
			t.Fatalf("client round %s lacks a client.train or a client.cvae_train span", parent)
		}
		edges = append(edges, edge{iv.lo, 1}, edge{iv.hi, -1})
	}
	slices.SortFunc(edges, func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.delta, b.delta))
	})
	open := 0
	for _, e := range edges {
		open += e.delta
		most = max(most, open)
	}
	return most, len(byRound)
}
