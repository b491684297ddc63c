package fednet

import (
	"runtime"
	"testing"

	"fedguard/internal/aggregate"
	"fedguard/internal/dataset"
	"fedguard/internal/rng"
)

// forgetWorkerSets drops the process's worker sets, so a test reads
// counters that only its own run moved (and a GOMAXPROCS it set).
func forgetWorkerSets() {
	workerSets.Lock()
	workerSets.byArch = nil
	workerSets.Unlock()
}

// TestCoLocatedClientsShareWorkers pins the co-located bound: eight
// clients served from one process with two procs — and the server beside
// them, which evaluates on the same set — build at most two classifiers
// over a whole run, hand every one back, and end on the in-process run's
// weights.
func TestCoLocatedClientsShareWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	forgetWorkerSets()
	defer forgetWorkerSets()

	cfg := testConfig()
	cfg.Experiment.NumClients, cfg.Experiment.PerRound, cfg.Experiment.Rounds = 8, 8, 3
	test := dataset.Generate(40, dataset.DefaultGenOptions(), rng.New(5))
	netHist := runLoopback(t, cfg, aggregate.NewFedAvg(), test)

	set, err := sharedWorkers(cfg.ArchName)
	if err != nil {
		t.Fatal(err)
	}
	if set.Size() != 2 {
		t.Fatalf("the process's set holds %d workers at GOMAXPROCS(2)", set.Size())
	}
	if built := set.Built(); built < 1 || built > 2 {
		t.Fatalf("eight co-located clients and their server built %d models, want at most 2", built)
	}
	if set.Idle() != set.Built() {
		t.Fatalf("%d of %d workers came back", set.Idle(), set.Built())
	}
	expectSameRun(t, netHist, inProcess(t, cfg, aggregate.NewFedAvg(), test))
}
