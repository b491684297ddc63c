package experiment

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"fedguard/internal/fl"
	"fedguard/internal/tensor"
)

// canonicalKey names one canonical run: the quick preset, one strategy,
// one scenario, a number of rounds.
type canonicalKey struct {
	strategy, scenario string
	rounds             int
}

// canonicalRun is one entry of the canonical-run cache.
type canonicalRun struct {
	once     sync.Once
	res      *Result
	onRounds int // how many records the run handed to OnRound
	err      error
}

var canonicals sync.Map // canonicalKey → *canonicalRun

// canonical returns the quick-preset run of strategy under scenario for
// rounds rounds. Each key is computed once per test binary, at pool
// width runtime.GOMAXPROCS(0) — pinned here and restored after, so a
// width leg running before it cannot skew it — and every test that
// compares against that federation reads the same entry. The result is
// shared: callers must not modify it. The run holds nothing of the
// calling test, so a failure is reported to each caller alike.
func canonical(t *testing.T, strategy, scenario string, rounds int) *canonicalRun {
	t.Helper()
	v, _ := canonicals.LoadOrStore(canonicalKey{strategy, scenario, rounds}, &canonicalRun{})
	c := v.(*canonicalRun)
	c.once.Do(func() {
		defer tensor.SetWorkers(tensor.Workers())
		tensor.SetWorkers(runtime.GOMAXPROCS(0))
		setup := MustSetup(PresetQuick)
		setup.Rounds = rounds
		sc, err := ScenarioByID(scenario)
		if err != nil {
			c.err = err
			return
		}
		c.res, c.err = Run(setup, sc, strategy, RunOptions{OnRound: func(fl.RoundRecord) { c.onRounds++ }})
	})
	if c.err != nil {
		t.Fatalf("canonical %s/%s/%d: %v", strategy, scenario, rounds, c.err)
	}
	return c
}

// TestIntegrationPoolWidthDeterminism pins the contract of the one
// parallelism bound, tensor.Workers(), which sizes the matmul kernels,
// the blocked aggregation kernels, the FedGuard audit and the run's
// classifier set — how many clients run their rounds at once — alike: a
// fixed-seed quick-preset federation produces byte-identical
// FinalWeights at every width. Each kernel-backed strategy runs three
// rounds serially, at a fixed pool and at GOMAXPROCS. FedGuard runs the
// preset's full eight rounds, so the audit scores late-round updates
// too, as two checkpoint splices of four rounds each: the barrier audit
// at width 1 (FedGuard) resumed at width 4 (Audit), and the stream audit
// at width 4 (FedGuard-stream) resumed at width 1 (Resume). Each half is
// held to the one canonical run at GOMAXPROCS that every FedGuard
// sign-flip test in this package reads: the first by its round records,
// the second by its records and final weights.
func TestIntegrationPoolWidthDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	defer tensor.SetWorkers(tensor.Workers())
	full := MustSetup(PresetQuick)
	sc, _ := ScenarioByID("sign-flip-50")

	run := func(t *testing.T, setup Setup, width int, strategy string, opts RunOptions) *fl.History {
		t.Helper()
		tensor.SetWorkers(width)
		res, err := Run(setup, sc, strategy, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.History.FinalWeights) == 0 {
			t.Fatal("no final weights recorded")
		}
		return res.History
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

	kernels := full
	kernels.Rounds = 3 // enough rounds to exercise every kernel; keeps the kernel legs affordable
	for _, strategy := range []string{"FedAvg", "GeoMed", "Krum"} {
		t.Run(strategy, func(t *testing.T) {
			serial := run(t, kernels, 1, strategy, RunOptions{}).FinalWeights
			for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
				got := run(t, kernels, w, strategy, RunOptions{}).FinalWeights
				sameBits(t, serial, got, fmt.Sprintf("%s at width %d", strategy, w))
			}
		})
	}

	// sameRecords holds got's rounds to the canonical run's first
	// len(got) rounds: accuracy, threshold and every decision.
	sameRecords := func(t *testing.T, got []fl.RoundRecord, leg string) {
		t.Helper()
		want := canonical(t, "FedGuard", "sign-flip-50", full.Rounds).res.History.Rounds
		if len(got) == 0 || len(got) > len(want) {
			t.Fatalf("%s: %d round records, want 1..%d", leg, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Round != w.Round || math.Float64bits(g.TestAccuracy) != math.Float64bits(w.TestAccuracy) ||
				math.Float64bits(g.Threshold) != math.Float64bits(w.Threshold) ||
				len(g.Decisions) == 0 || !reflect.DeepEqual(g.Decisions, w.Decisions) {
				t.Fatalf("%s: round %d record differs:\n got acc %v at %v: %v\nwant acc %v at %v: %v", leg, w.Round,
					g.TestAccuracy, g.Threshold, g.Decisions, w.TestAccuracy, w.Threshold, w.Decisions)
			}
		}
	}

	// Each audit schedule runs rounds 1–4 at one width, checkpointing
	// every round, and resumes at the other width for rounds 5–8; the
	// spliced run must reproduce the uninterrupted one bit for bit. The
	// first half's leg writes the checkpoint its second half reads. The
	// engine streams every FedGuard round it can, so the barrier splice
	// hides the strategy's BeginRound.
	runGuard := func(t *testing.T, setup Setup, width int, barrier bool, opts RunOptions) *fl.History {
		t.Helper()
		if !barrier {
			return run(t, setup, width, "FedGuard", opts)
		}
		strat, err := NewStrategy("FedGuard", setup)
		if err != nil {
			t.Fatal(err)
		}
		tensor.SetWorkers(width)
		res, err := runStrategy(setup, sc, "FedGuard", barrierOnly{strat}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.History.FinalWeights) == 0 {
			t.Fatal("no final weights recorded")
		}
		return res.History
	}
	half := full
	half.Rounds = full.Rounds / 2
	for _, splice := range []struct {
		first, second string
		widths        [2]int
		barrier       bool
	}{
		{"FedGuard", "Audit", [2]int{1, 4}, true},
		{"FedGuard-stream", "Resume", [2]int{4, 1}, false},
	} {
		dir := t.TempDir()
		t.Run(splice.first, func(t *testing.T) {
			h := runGuard(t, half, splice.widths[0], splice.barrier, RunOptions{CheckpointDir: dir})
			sameRecords(t, h.Rounds, fmt.Sprintf("%s rounds 1–%d at width %d", splice.first, half.Rounds, splice.widths[0]))
		})
		t.Run(splice.second, func(t *testing.T) {
			leg := fmt.Sprintf("%s rounds %d–%d at width %d", splice.second, half.Rounds+1, full.Rounds, splice.widths[1])
			var resumed []int
			h := runGuard(t, full, splice.widths[1], splice.barrier, RunOptions{
				CheckpointDir: dir, Resume: true,
				OnRound: func(rec fl.RoundRecord) { resumed = append(resumed, rec.Round) },
			})
			if len(resumed) != full.Rounds-half.Rounds || resumed[0] != half.Rounds+1 {
				t.Fatalf("%s: ran rounds %v, want %d–%d from %s's checkpoint", leg, resumed, half.Rounds+1, full.Rounds, splice.first)
			}
			if len(h.Rounds) != full.Rounds {
				t.Fatalf("%s: %d round records, want %d", leg, len(h.Rounds), full.Rounds)
			}
			sameRecords(t, h.Rounds, leg)
			sameBits(t, canonical(t, "FedGuard", "sign-flip-50", full.Rounds).res.History.FinalWeights, h.FinalWeights, leg)
		})
	}
}

// barrierOnly hides a strategy's BeginRound, so the engine audits its
// rounds after the barrier: the schedule the stream must equal.
type barrierOnly struct{ fl.Strategy }

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
	res := canonical(t, "FedGuard", "sign-flip-50", MustSetup(PresetQuick).Rounds).res
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
	rounds := MustSetup(PresetQuick).Rounds
	avg := canonical(t, "FedAvg", "no-attack", rounds).res
	guard := canonical(t, "FedGuard", "no-attack", rounds).res
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
	// payload share (Table V mechanism). Round 1 of the shared benign runs
	// is the first round either strategy pays for.
	rounds := MustSetup(PresetQuick).Rounds
	avg := canonical(t, "FedAvg", "no-attack", rounds).res.History.Rounds[0]
	guard := canonical(t, "FedGuard", "no-attack", rounds).res.History.Rounds[0]
	if avg.UploadBytes != guard.UploadBytes {
		t.Fatalf("uploads differ: %d vs %d (broadcast is strategy-independent)", avg.UploadBytes, guard.UploadBytes)
	}
	if guard.DownloadBytes <= avg.DownloadBytes {
		t.Fatalf("FedGuard downloads %d not above FedAvg %d", guard.DownloadBytes, avg.DownloadBytes)
	}
}
