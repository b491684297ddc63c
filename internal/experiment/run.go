package experiment

import (
	"errors"
	"fmt"
	"io"

	"fedguard/internal/attack"
	"fedguard/internal/fl"
	"fedguard/internal/persist"
	"fedguard/internal/telemetry"
)

// Result couples a finished run with its identity.
type Result struct {
	Scenario Scenario
	Strategy string
	History  *fl.History
	// LastN is the averaging window used for summary statistics.
	LastN int
}

// Mean and Std return the Table IV statistic of the run.
func (r *Result) Mean() float64 { m, _ := r.History.LastNStats(r.LastN); return m }

// Std returns the standard deviation over the averaging window.
func (r *Result) Std() float64 { _, s := r.History.LastNStats(r.LastN); return s }

// RunOptions tweaks a single run.
type RunOptions struct {
	// ServerLR overrides the setup's server learning rate when non-zero
	// (Fig. 5).
	ServerLR float64
	// OnRound, if non-nil, receives every round record as it completes.
	OnRound func(fl.RoundRecord)
	// Seed overrides the setup seed when non-zero (for repeat runs).
	Seed uint64
	// Telemetry, when non-nil, receives the run's structured events and
	// phase-level metrics (threaded into fl.FederationConfig).
	Telemetry *telemetry.T
	// Strategy, when non-nil, is used instead of resolving strategyName
	// through the registry — for runs that need a specially configured
	// strategy instance (the name still labels the result).
	Strategy fl.Strategy
	// StreamAudit enables the streaming round pipeline: strategies that
	// implement fl.StreamingStrategy audit each update as it lands
	// instead of waiting for the round barrier. Bit-identical results
	// either way; this only reorders the server's compute.
	StreamAudit bool
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
	// AggWorkers bounds the aggregation-kernel parallelism
	// (fl.FederationConfig.AggWorkers); 0 keeps the tensor pool default.
	// Results are byte-identical at any setting.
	AggWorkers int
}

// Run executes one (setup, scenario, strategy) cell and returns its
// result.
func Run(setup Setup, sc Scenario, strategyName string, opts RunOptions) (*Result, error) {
	att, err := NewAttack(sc.Attack, setup.Seed)
	if err != nil {
		return nil, err
	}
	if tt, ok := att.(attack.AGRTailored); ok {
		tt.TailorTo(strategyName)
	}
	strat := opts.Strategy
	if strat == nil {
		strat, err = NewStrategy(strategyName, setup)
		if err != nil {
			return nil, err
		}
	}
	train, test, _ := setup.Data()

	cfg := setup.Federation(sc)
	if opts.ServerLR > 0 {
		cfg.ServerLR = opts.ServerLR
	}
	if opts.Seed != 0 {
		cfg.Seed = opts.Seed
	}
	if opts.Telemetry != nil {
		cfg.Telemetry = opts.Telemetry
	}
	cfg.AggWorkers = opts.AggWorkers
	cfg.StreamAudit = opts.StreamAudit
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

// RecordResults publishes a finished result set into a telemetry
// registry: per-cell summary gauges keyed by scenario and strategy.
// fedbench uses this to emit its run as a JSON metrics snapshot, giving
// future perf work a machine-readable trajectory to compare against.
func RecordResults(reg *telemetry.Registry, results []*Result) {
	for _, r := range results {
		labels := []telemetry.Label{
			telemetry.L("scenario", r.Scenario.ID),
			telemetry.L("strategy", r.Strategy),
		}
		reg.Gauge("bench_mean_accuracy", labels...).Set(r.Mean())
		reg.Gauge("bench_std_accuracy", labels...).Set(r.Std())
		reg.Gauge("bench_final_accuracy", labels...).Set(r.History.FinalAccuracy())
		reg.Gauge("bench_round_seconds", labels...).Set(r.History.MeanSeconds())
		train, agg, eval := r.History.MeanPhaseSeconds()
		reg.Gauge("bench_train_seconds", labels...).Set(train)
		reg.Gauge("bench_aggregate_seconds", labels...).Set(agg)
		reg.Gauge("bench_eval_seconds", labels...).Set(eval)
		up, down := r.History.MeanBytes()
		reg.Gauge("bench_upload_bytes", labels...).Set(float64(up))
		reg.Gauge("bench_download_bytes", labels...).Set(float64(down))
		reg.Gauge("bench_rounds", labels...).Set(float64(len(r.History.Rounds)))
	}
}

// RunMatrix runs every scenario × strategy cell, reporting progress to
// progress (may be nil). Cells run sequentially — each run already
// saturates the worker pool internally.
func RunMatrix(setup Setup, scenarios []Scenario, strategies []string, progress io.Writer) ([]*Result, error) {
	var out []*Result
	for _, sc := range scenarios {
		for _, name := range strategies {
			if progress != nil {
				fmt.Fprintf(progress, "running %s / %s...\n", sc.ID, name)
			}
			res, err := Run(setup, sc, name, RunOptions{})
			if err != nil {
				return out, fmt.Errorf("%s/%s: %w", sc.ID, name, err)
			}
			if progress != nil {
				fmt.Fprintf(progress, "  %s / %s: mean %.4f ± %.4f (final %.4f)\n",
					sc.ID, name, res.Mean(), res.Std(), res.History.FinalAccuracy())
			}
			out = append(out, res)
		}
	}
	return out, nil
}
