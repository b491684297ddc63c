package experiment

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"fedguard/internal/tensor"
)

// TestIntegrationPoolWidthDeterminism pins the contract of the one
// parallelism bound, tensor.Workers(), which sizes the matmul kernels,
// the blocked aggregation kernels, the FedGuard audit and the run's
// classifier set — how many clients run their rounds at once — alike: a
// fixed-seed quick-preset federation produces byte-identical
// FinalWeights at every width — serial, a fixed pool, and GOMAXPROCS —
// for each kernel-backed strategy and for FedGuard on both audit
// schedules, for the barrier audit over the preset's full round count,
// and for a run resumed from a mid-run checkpoint at a different width
// than the run that wrote it.
func TestIntegrationPoolWidthDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	defer tensor.SetWorkers(tensor.Workers())
	full := MustSetup(PresetQuick)
	setup := full
	setup.Rounds = 3 // enough rounds to exercise every kernel; keeps the kernel legs affordable
	sc, _ := ScenarioByID("sign-flip-50")

	runSetup := func(t *testing.T, setup Setup, width int, strategy string, opts RunOptions) []float32 {
		t.Helper()
		tensor.SetWorkers(width)
		res, err := Run(setup, sc, strategy, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.History.FinalWeights) == 0 {
			t.Fatal("no final weights recorded")
		}
		return res.History.FinalWeights
	}
	run := func(t *testing.T, width int, strategy string, opts RunOptions) []float32 {
		t.Helper()
		return runSetup(t, setup, width, strategy, opts)
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

	for _, leg := range []struct {
		name, strategy string
		opts           RunOptions
	}{
		{"FedAvg", "FedAvg", RunOptions{}},
		{"GeoMed", "GeoMed", RunOptions{}},
		{"Krum", "Krum", RunOptions{}},
		{"FedGuard", "FedGuard", RunOptions{}},
		{"FedGuard-stream", "FedGuard", RunOptions{StreamAudit: true}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			serial := run(t, 1, leg.strategy, leg.opts)
			for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
				got := run(t, w, leg.strategy, leg.opts)
				sameBits(t, serial, got, fmt.Sprintf("%s at width %d", leg.name, w))
			}
		})
	}

	// The barrier audit over all of the preset's rounds, so the audit
	// scores late-round updates, not only the first three rounds'.
	t.Run("Audit", func(t *testing.T) {
		serial := runSetup(t, full, 1, "FedGuard", RunOptions{})
		got := runSetup(t, full, 4, "FedGuard", RunOptions{})
		sameBits(t, serial, got, "Audit at width 4")
	})

	t.Run("Resume", func(t *testing.T) {
		uninterrupted := run(t, 1, "FedGuard", RunOptions{})
		// Checkpoint every round but stop after round 2 at a wide pool,
		// then resume the final round serially; the spliced run must
		// reproduce the uninterrupted serial one bit for bit.
		dir := t.TempDir()
		short := setup
		short.Rounds = 2
		tensor.SetWorkers(4)
		if _, err := Run(short, sc, "FedGuard", RunOptions{CheckpointDir: dir}); err != nil {
			t.Fatal(err)
		}
		resumed := run(t, 1, "FedGuard", RunOptions{CheckpointDir: dir, Resume: true})
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
