package experiment

import (
	"math"
	"testing"

	"fedguard/internal/tensor"
)

// TestIntegrationFedGuardAuditWorkersDeterminism pins the end-to-end
// determinism contract of the parallel audit: a fixed-seed quick-preset
// FedGuard federation must produce byte-identical FinalWeights whether
// the server audits updates serially or across a worker pool.
func TestIntegrationFedGuardAuditWorkersDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	setup := MustSetup(PresetQuick)
	sc, _ := ScenarioByID("sign-flip-50")
	run := func(workers int) []float32 {
		g := newFedGuard(setup, nil)
		g.AuditWorkers = workers
		res, err := Run(setup, sc, "FedGuard", RunOptions{Strategy: g})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.History.FinalWeights) == 0 {
			t.Fatal("no final weights recorded")
		}
		return res.History.FinalWeights
	}
	serial := run(1)
	parallel := run(4)
	if len(serial) != len(parallel) {
		t.Fatalf("weight counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("FinalWeights[%d] differs: serial %v, parallel %v", i, serial[i], parallel[i])
		}
	}
}

// TestIntegrationAggWorkersDeterminism pins the acceptance contract of
// the blocked aggregation kernels: a fixed-seed quick-preset federation
// produces byte-identical FinalWeights at every aggregation-kernel
// width — serial, a fixed pool, and the GOMAXPROCS default — for each
// kernel-backed strategy, including a run resumed from a mid-run
// checkpoint at a different width than the run that wrote it.
func TestIntegrationAggWorkersDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	defer tensor.SetAggWorkers(0)
	setup := MustSetup(PresetQuick)
	setup.Rounds = 3 // enough rounds to exercise every kernel; keeps 14 runs affordable
	sc, _ := ScenarioByID("sign-flip-50")

	run := func(t *testing.T, strategy string, opts RunOptions) []float32 {
		t.Helper()
		// Reset the pool-wide width so an AggWorkers=0 leg genuinely
		// follows the tensor pool instead of inheriting the prior leg's.
		tensor.SetAggWorkers(0)
		res, err := Run(setup, sc, strategy, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.History.FinalWeights) == 0 {
			t.Fatal("no final weights recorded")
		}
		return res.History.FinalWeights
	}
	sameBits := func(t *testing.T, want, got []float32, leg string) {
		t.Helper()
		if len(want) != len(got) {
			t.Fatalf("%s: weight counts differ: %d vs %d", leg, len(want), len(got))
		}
		for i := range want {
			if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
				t.Fatalf("%s: FinalWeights[%d] differs: %v vs %v", leg, i, want[i], got[i])
			}
		}
	}

	for _, strategy := range []string{"FedAvg", "GeoMed", "Krum", "FedGuard"} {
		t.Run(strategy, func(t *testing.T) {
			serial := run(t, strategy, RunOptions{AggWorkers: 1})
			for _, w := range []int{4, 0} { // 0 = tensor pool default (GOMAXPROCS)
				got := run(t, strategy, RunOptions{AggWorkers: w})
				sameBits(t, serial, got, strategy)
			}
		})
	}

	t.Run("Resume", func(t *testing.T) {
		uninterrupted := run(t, "FedGuard", RunOptions{AggWorkers: 1})
		// Checkpoint every round but stop after round 2, then resume the
		// final round at a wider kernel; the spliced run must reproduce
		// the uninterrupted serial one bit for bit.
		dir := t.TempDir()
		short := setup
		short.Rounds = 2
		tensor.SetAggWorkers(0)
		if _, err := Run(short, sc, "FedGuard", RunOptions{AggWorkers: 4, CheckpointDir: dir}); err != nil {
			t.Fatal(err)
		}
		resumed := run(t, "FedGuard", RunOptions{AggWorkers: 4, CheckpointDir: dir, Resume: true})
		sameBits(t, uninterrupted, resumed, "resumed")
	})
}

// These tests reproduce the paper's qualitative claims end-to-end at
// quick-preset scale: under majority model-poisoning attacks the
// undefended baseline collapses to chance while FedGuard stays close to
// its benign accuracy.

func TestIntegrationFedAvgCollapsesUnderSignFlip(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	setup := MustSetup(PresetQuick)
	sc, _ := ScenarioByID("sign-flip-50")
	res, err := Run(setup, sc, "FedAvg", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean() > 0.4 {
		t.Fatalf("FedAvg under 50%% sign-flip reached %v; expected collapse", res.Mean())
	}
}

func TestIntegrationFedGuardDefendsSignFlip(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	setup := MustSetup(PresetQuick)
	sc, _ := ScenarioByID("sign-flip-50")
	res, err := Run(setup, sc, "FedGuard", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.History.FinalAccuracy() < 0.6 {
		t.Fatalf("FedGuard under 50%% sign-flip reached only %v", res.History.FinalAccuracy())
	}
	// FedGuard must actually be excluding updates, not just surviving.
	excluded := 0
	for _, rec := range res.History.Rounds {
		requireWholeRecord(t, "FedGuard", rec)
		excluded += rec.Excluded()
	}
	if excluded == 0 {
		t.Fatal("FedGuard never excluded any update under a 50% attack")
	}
}

func TestIntegrationFedGuardDefendsSameValue(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	setup := MustSetup(PresetQuick)
	sc, _ := ScenarioByID("same-value-50")
	res, err := Run(setup, sc, "FedGuard", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.History.FinalAccuracy() < 0.6 {
		t.Fatalf("FedGuard under 50%% same-value reached only %v", res.History.FinalAccuracy())
	}
}

func TestIntegrationBenignParity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// Without attackers, FedGuard should track FedAvg closely: its filter
	// may drop below-average updates but must not prevent convergence.
	setup := MustSetup(PresetQuick)
	sc, _ := ScenarioByID("no-attack")
	avg, err := Run(setup, sc, "FedAvg", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	guard, err := Run(setup, sc, "FedGuard", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if guard.History.FinalAccuracy() < avg.History.FinalAccuracy()-0.15 {
		t.Fatalf("benign FedGuard (%v) lags FedAvg (%v) too much",
			guard.History.FinalAccuracy(), avg.History.FinalAccuracy())
	}
}

func TestIntegrationGeoMedSurvivesMinorityNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// With a minority (30%) of label flippers, robust baselines should
	// retain most accuracy (paper: GeoMed 98.13% at 30% label flip).
	setup := MustSetup(PresetQuick)
	sc, _ := ScenarioByID("label-flip-30")
	res, err := Run(setup, sc, "GeoMed", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.History.FinalAccuracy() < 0.5 {
		t.Fatalf("GeoMed under 30%% label flip reached only %v", res.History.FinalAccuracy())
	}
}

func TestIntegrationFedGuardByteOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// FedGuard's downloads must exceed FedAvg's by exactly the decoder
	// payload share (Table V mechanism).
	setup := MustSetup(PresetQuick)
	setup.Rounds = 1
	sc, _ := ScenarioByID("no-attack")
	avg, err := Run(setup, sc, "FedAvg", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	guard, err := Run(setup, sc, "FedGuard", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, avgDown := avg.History.MeanBytes()
	_, guardDown := guard.History.MeanBytes()
	upA, _ := avg.History.MeanBytes()
	upG, _ := guard.History.MeanBytes()
	if upA != upG {
		t.Fatalf("uploads differ: %d vs %d (broadcast is strategy-independent)", upA, upG)
	}
	if guardDown <= avgDown {
		t.Fatalf("FedGuard downloads %d not above FedAvg %d", guardDown, avgDown)
	}
}
