package experiment

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fedguard/internal/fl"
	"fedguard/internal/telemetry"
)

// Cell is one run of a sweep. A study's override (t, α, server learning
// rate, seed: a repeat on the same data) is already in Setup; Label names
// the result's row ("FedGuard-lr-0.3"), and an empty Label means Strategy.
type Cell struct {
	Setup    Setup
	Scenario Scenario
	Strategy string
	Label    string
}

// Grid returns the attack × strategy cells over one setup, scenario-major
// with strategies inner.
func Grid(setup Setup, scenarios []Scenario, strategies []string) []Cell {
	cells := make([]Cell, 0, len(scenarios)*len(strategies))
	for _, sc := range scenarios {
		for _, name := range strategies {
			cells = append(cells, Cell{Setup: setup, Scenario: sc, Strategy: name})
		}
	}
	return cells
}

// MatrixOptions tweaks a sweep. The zero value runs sequentially with
// the setups' defaults.
type MatrixOptions struct {
	// Workers bounds cell-level parallelism (<= 1 runs cells
	// sequentially). Results are identical at any setting: every cell is
	// an independent seeded run and lands at its index.
	Workers int
	// Telemetry, when non-nil, receives one MatrixCellCompleted event per
	// cell as it finishes. With Workers > 1 the emission order follows
	// completion, not cell order; the returned slice and the CSV writer
	// are the deterministic artifacts.
	Telemetry *telemetry.T
	// Progress, when non-nil, receives human-readable per-cell lines.
	Progress io.Writer
}

// RunMatrix is the one way a study runs: it runs every cell and returns
// one Result per cell, in cell order regardless of opts.Workers, each
// byte-identical at any worker count. Cells are independent seeded runs —
// each constructs a fresh attack and strategy instance via the registry
// (so latch-state attacks like AdditiveNoise never leak across cells) and
// AGR-tailored attacks are pointed at the cell's strategy. A cell's run is
// silent: concurrent cells share no event log.
//
// The cells are validated up front; an unknown strategy or attack fails
// fast before any training starts. A cell that fails at run time records
// its error and the sweep continues; the first (cell-order) error is also
// returned.
func RunMatrix(cells []Cell, opts MatrixOptions) ([]*Result, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("experiment: a sweep needs at least one cell")
	}
	for _, c := range cells {
		if !slices.Contains(ExtendedStrategyNames(), c.Strategy) {
			return nil, fmt.Errorf("experiment: unknown strategy %q (have %s)",
				c.Strategy, strings.Join(ExtendedStrategyNames(), ", "))
		}
		if _, err := NewAttack(c.Scenario.Attack, c.Setup.Seed); err != nil {
			return nil, fmt.Errorf("experiment: scenario %q: %w", c.Scenario.ID, err)
		}
	}

	results := make([]*Result, len(cells))
	workers := min(max(opts.Workers, 1), len(cells))
	var progressMu sync.Mutex
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1) - 1)
				if i >= len(cells) {
					return
				}
				r := runCell(cells[i])
				results[i] = r
				opts.Telemetry.Emit(cellEvent(r))
				if opts.Progress != nil {
					progressMu.Lock()
					printCell(opts.Progress, r)
					progressMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	for _, r := range results {
		if r.Err != nil {
			return results, fmt.Errorf("experiment: cell %s/%s: %w", r.Scenario.ID, r.Strategy, r.Err)
		}
	}
	return results, nil
}

func runCell(c Cell) *Result {
	start := time.Now()
	r, err := Run(c.Setup, c.Scenario, c.Strategy, RunOptions{})
	if err != nil {
		r = &Result{Scenario: c.Scenario, History: &fl.History{}, LastN: c.Setup.LastN, Err: err}
	}
	r.Seconds = time.Since(start).Seconds()
	r.Strategy = cmp.Or(c.Label, c.Strategy)
	return r
}

func cellEvent(r *Result) telemetry.MatrixCellCompleted {
	e := telemetry.MatrixCellCompleted{
		Scenario:               r.Scenario.ID,
		Strategy:               r.Strategy,
		MeanAccuracy:           r.Mean(),
		StdAccuracy:            r.Std(),
		FinalAccuracy:          r.History.FinalAccuracy(),
		MaliciousExclusionRate: r.MaliciousExclusionRate(),
		BenignExclusionRate:    r.BenignExclusionRate(),
		Seconds:                r.Seconds,
	}
	if r.Err != nil {
		e.Err = r.Err.Error()
	}
	return e
}

func printCell(w io.Writer, r *Result) {
	if r.Err != nil {
		fmt.Fprintf(w, "%s / %s: ERROR %s\n", r.Scenario.ID, r.Strategy, r.Err)
		return
	}
	fmt.Fprintf(w, "%s / %s: mean %.4f ± %.4f (final %.4f, excl mal %.2f ben %.2f) [%.1fs]\n",
		r.Scenario.ID, r.Strategy, r.Mean(), r.Std(), r.History.FinalAccuracy(),
		r.MaliciousExclusionRate(), r.BenignExclusionRate(), r.Seconds)
}

// WriteMatrixCSV writes a sweep long-form, one row per result in cell
// order. The output is a pure function of the cell numbers — wall-clock
// columns are deliberately omitted — so two sweeps of the same cells and
// seed produce byte-identical files at any worker count.
func WriteMatrixCSV(w io.Writer, results []*Result) error {
	if _, err := io.WriteString(w, "scenario,attack,malicious_fraction,strategy,"+
		"mean_accuracy,std_accuracy,final_accuracy,"+
		"malicious_exclusion_rate,benign_exclusion_rate,excluded,malicious_sampled,err\n"); err != nil {
		return err
	}
	for _, c := range matrixRows(results) {
		row := strings.Join([]string{
			c.Scenario.ID,
			c.Scenario.Attack,
			strconv.FormatFloat(c.Scenario.MaliciousFraction, 'f', 2, 64),
			c.Strategy,
			strconv.FormatFloat(c.Mean, 'f', 6, 64),
			strconv.FormatFloat(c.Std, 'f', 6, 64),
			strconv.FormatFloat(c.Final, 'f', 6, 64),
			strconv.FormatFloat(c.MaliciousExclusionRate, 'f', 6, 64),
			strconv.FormatFloat(c.BenignExclusionRate, 'f', 6, 64),
			strconv.Itoa(c.Excluded),
			strconv.Itoa(c.MaliciousSampled),
			strings.ReplaceAll(c.Err, ",", ";"),
		}, ",")
		if _, err := io.WriteString(w, row+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// WriteMatrixJSON writes a sweep as an indented JSON array (including
// per-cell wall-clock, so it is informative but not byte-stable).
func WriteMatrixJSON(w io.Writer, results []*Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(matrixRows(results))
}

// matrixCell is one result's row in the sweep's CSV and JSON output.
type matrixCell struct {
	Scenario Scenario `json:"scenario"`
	Strategy string   `json:"strategy"`

	Mean  float64 `json:"mean_accuracy"`
	Std   float64 `json:"std_accuracy"`
	Final float64 `json:"final_accuracy"`

	MaliciousExclusionRate float64 `json:"malicious_exclusion_rate"`
	BenignExclusionRate    float64 `json:"benign_exclusion_rate"`
	Excluded               int     `json:"excluded"`
	MaliciousSampled       int     `json:"malicious_sampled"`

	Seconds float64 `json:"seconds"`
	Err     string  `json:"err,omitempty"`
}

func matrixRows(results []*Result) []matrixCell {
	rows := make([]matrixCell, len(results))
	for i, r := range results {
		rows[i] = matrixCell{
			Scenario: r.Scenario, Strategy: r.Strategy,
			Mean: r.Mean(), Std: r.Std(), Final: r.History.FinalAccuracy(),
			MaliciousExclusionRate: r.MaliciousExclusionRate(),
			BenignExclusionRate:    r.BenignExclusionRate(),
			Excluded:               r.Excluded(),
			MaliciousSampled:       r.MaliciousSampled(),
			Seconds:                r.Seconds,
		}
		if r.Err != nil {
			rows[i].Err = r.Err.Error()
		}
	}
	return rows
}
