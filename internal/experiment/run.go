package experiment

import (
	"errors"
	"fmt"

	"fedguard/internal/fl"
	"fedguard/internal/persist"
	"fedguard/internal/telemetry"
)

// Result couples a finished run with its identity.
type Result struct {
	Scenario Scenario
	// Strategy labels the result's row: the strategy name, or the sweep
	// cell's Label.
	Strategy string
	History  *fl.History
	// LastN is the averaging window used for summary statistics.
	LastN int
	// Seconds is the run's wall-clock cost and Err its failure, both set
	// by RunMatrix. A failed run's History is empty.
	Seconds float64
	Err     error
}

// Mean and Std return the Table IV statistic of the run.
func (r *Result) Mean() float64 { m, _ := r.History.LastNStats(r.LastN); return m }

// Std returns the standard deviation over the averaging window.
func (r *Result) Std() float64 { _, s := r.History.LastNStats(r.LastN); return s }

// Excluded returns how many updates the run's defense rejected.
func (r *Result) Excluded() int { n, _, _, _ := r.exclusions(); return n }

// MaliciousSampled returns how many sampled update slots were malicious.
func (r *Result) MaliciousSampled() int { _, _, n, _ := r.exclusions(); return n }

// MaliciousExclusionRate is the fraction of sampled malicious update
// slots the defense rejected (0 for strategies that never exclude).
func (r *Result) MaliciousExclusionRate() float64 {
	_, malExcluded, malSampled, _ := r.exclusions()
	return ratio(malExcluded, malSampled)
}

// BenignExclusionRate is the fraction of sampled benign update slots the
// defense rejected: its false-positive rate.
func (r *Result) BenignExclusionRate() float64 {
	excluded, malExcluded, _, benignSampled := r.exclusions()
	return ratio(excluded-malExcluded, benignSampled)
}

// exclusions reads the run's decision record: every decision carries its
// ground truth.
func (r *Result) exclusions() (excluded, malExcluded, malSampled, benignSampled int) {
	for _, rec := range r.History.Rounds {
		malSampled += rec.MaliciousSampled
		benignSampled += len(rec.Sampled) - rec.MaliciousSampled
		for _, d := range rec.Decisions {
			if !d.Kept {
				excluded++
				if d.Malicious {
					malExcluded++
				}
			}
		}
	}
	return excluded, malExcluded, malSampled, benignSampled
}

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// RunOptions tweaks a single run.
type RunOptions struct {
	// OnRound, if non-nil, receives every round record as it completes.
	OnRound func(fl.RoundRecord)
	// Telemetry, when non-nil, receives the run's structured events and,
	// with tracing enabled, its span tree (threaded into
	// fl.FederationConfig).
	Telemetry *telemetry.T
	// CheckpointDir enables crash-safe round checkpointing when non-empty:
	// the full federation state (global weights, RNG streams, history,
	// client CVAE decoders) is atomically persisted after each
	// CheckpointEvery-th round, and a later run with Resume continues
	// from it with bit-identical results.
	CheckpointDir string
	// CheckpointEvery is the checkpoint cadence in rounds (<= 0 = every
	// round); meaningful only with CheckpointDir.
	CheckpointEvery int
	// Resume loads CheckpointDir's checkpoint and continues the run from
	// the round after it. A missing checkpoint means a cold start.
	Resume bool
}

// Run executes one (setup, scenario, strategy) cell and returns its
// result. The run's seed is setup.Seed; the attack's collusion seed
// follows it.
func Run(setup Setup, sc Scenario, strategyName string, opts RunOptions) (*Result, error) {
	strat, err := NewStrategy(strategyName, setup)
	if err != nil {
		return nil, err
	}
	cfg := setup.Federation(sc)
	att, err := NewAttack(sc.Attack, cfg.Seed)
	if err != nil {
		return nil, err
	}
	train, test, _ := setup.Data()

	cfg.Telemetry = opts.Telemetry
	if sc.MaliciousFraction > 0 {
		cfg.Attack = att
	}
	if opts.CheckpointDir != "" {
		dir := opts.CheckpointDir
		cfg.CheckpointEvery = opts.CheckpointEvery
		cfg.CheckpointSink = func(ck *fl.Checkpoint) (string, int64, error) {
			return persist.SaveCheckpoint(dir, ck)
		}
	}
	fed, err := fl.NewFederation(train, test, cfg)
	if err != nil {
		return nil, err
	}
	// A resume-requested run with nothing written yet starts cold.
	var ck *fl.Checkpoint
	if opts.Resume {
		if opts.CheckpointDir == "" {
			return nil, fmt.Errorf("experiment: Resume requires CheckpointDir")
		}
		ck, err = persist.LoadCheckpoint(opts.CheckpointDir)
		if err != nil && !errors.Is(err, persist.ErrNoCheckpoint) {
			return nil, fmt.Errorf("experiment: loading checkpoint: %w", err)
		}
	}
	var h *fl.History
	if ck != nil {
		h, err = fed.Resume(strat, ck, opts.OnRound)
	} else {
		h, err = fed.Run(strat, opts.OnRound)
	}
	if err != nil {
		return nil, err
	}
	return &Result{Scenario: sc, Strategy: strategyName, History: h, LastN: setup.LastN}, nil
}
