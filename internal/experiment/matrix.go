package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fedguard/internal/telemetry"
)

// MatrixSpec names the grid of an attack×strategy sweep.
type MatrixSpec struct {
	Scenarios  []Scenario
	Strategies []string
}

// MatrixOptions tweaks a sweep. The zero value runs sequentially with
// the setup's defaults.
type MatrixOptions struct {
	// Workers bounds cell-level parallelism (<= 1 runs cells
	// sequentially). Results are identical at any setting: every cell is
	// an independent seeded run and lands at its grid index.
	Workers int
	// ServerLR, Seed, AggWorkers and StreamAudit forward into each
	// cell's RunOptions.
	ServerLR    float64
	Seed        uint64
	AggWorkers  int
	StreamAudit bool
	// Telemetry, when non-nil, receives one MatrixCellCompleted event per
	// cell as it finishes. With Workers > 1 the emission order follows
	// completion, not grid order; the returned slice and the CSV writer
	// are the deterministic artifacts.
	Telemetry *telemetry.T
	// Progress, when non-nil, receives human-readable per-cell lines.
	Progress io.Writer
}

// MatrixCell is one finished cell of the sweep.
type MatrixCell struct {
	Scenario Scenario `json:"scenario"`
	Strategy string   `json:"strategy"`

	Mean  float64 `json:"mean_accuracy"`
	Std   float64 `json:"std_accuracy"`
	Final float64 `json:"final_accuracy"`

	// MaliciousExclusionRate is the fraction of sampled malicious update
	// slots the defense rejected; BenignExclusionRate is the benign
	// counterpart (the defense's false-positive rate). Both are 0 for
	// strategies that never exclude (FedAvg et al.).
	MaliciousExclusionRate float64 `json:"malicious_exclusion_rate"`
	BenignExclusionRate    float64 `json:"benign_exclusion_rate"`
	// Excluded and MaliciousSampled are the raw counts behind the rates.
	Excluded         int `json:"excluded"`
	MaliciousSampled int `json:"malicious_sampled"`

	// Seconds is the cell's wall-clock cost. It is reported in JSON and
	// progress output but deliberately kept out of the CSV, which must be
	// byte-identical across runs and worker counts.
	Seconds float64 `json:"seconds"`

	// Err records a failed cell (empty on success).
	Err string `json:"err,omitempty"`
}

// RunAttackMatrix sweeps every scenario × strategy cell of spec over
// setup. Cells are independent seeded runs — each constructs a fresh
// attack and strategy instance via the registry (so latch-state attacks
// like AdditiveNoise never leak across cells) and AGR-tailored attacks
// are pointed at the cell's strategy. The returned slice is in row-major
// grid order (scenario-major, strategies inner) regardless of
// opts.Workers, and every cell's numbers are byte-identical at any
// worker count.
//
// The grid is validated up front; an unknown strategy or attack fails
// fast before any training starts. A cell that fails at run time records
// its error and the sweep continues; the first (grid-order) cell error
// is also returned.
func RunAttackMatrix(setup Setup, spec MatrixSpec, opts MatrixOptions) ([]MatrixCell, error) {
	if len(spec.Scenarios) == 0 || len(spec.Strategies) == 0 {
		return nil, fmt.Errorf("experiment: matrix needs at least one scenario and one strategy")
	}
	known := make(map[string]bool)
	for _, s := range ExtendedStrategyNames() {
		known[s] = true
	}
	for _, s := range spec.Strategies {
		if !known[s] {
			return nil, fmt.Errorf("experiment: unknown strategy %q (have %s)",
				s, strings.Join(ExtendedStrategyNames(), ", "))
		}
	}
	for _, sc := range spec.Scenarios {
		if _, err := NewAttack(sc.Attack, setup.Seed); err != nil {
			return nil, fmt.Errorf("experiment: scenario %q: %w", sc.ID, err)
		}
	}

	cells := make([]MatrixCell, len(spec.Scenarios)*len(spec.Strategies))
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(cells) {
		workers = len(cells)
	}

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
				sc := spec.Scenarios[i/len(spec.Strategies)]
				name := spec.Strategies[i%len(spec.Strategies)]
				cells[i] = runMatrixCell(setup, sc, name, opts)
				opts.Telemetry.Emit(cellEvent(cells[i]))
				if opts.Progress != nil {
					progressMu.Lock()
					printCell(opts.Progress, cells[i])
					progressMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	for _, c := range cells {
		if c.Err != "" {
			return cells, fmt.Errorf("experiment: cell %s/%s: %s",
				c.Scenario.ID, c.Strategy, c.Err)
		}
	}
	return cells, nil
}

// runMatrixCell executes one independent cell and reads its exclusion
// rates off the run's own records (every decision carries its ground
// truth). The run itself is silent: concurrent cells share no event log
// or registry, and the sweep reports one MatrixCellCompleted per cell.
func runMatrixCell(setup Setup, sc Scenario, strategy string, opts MatrixOptions) MatrixCell {
	cell := MatrixCell{Scenario: sc, Strategy: strategy}
	setup.Telemetry = nil
	start := time.Now()
	res, err := Run(setup, sc, strategy, RunOptions{
		ServerLR:    opts.ServerLR,
		Seed:        opts.Seed,
		AggWorkers:  opts.AggWorkers,
		StreamAudit: opts.StreamAudit,
	})
	cell.Seconds = time.Since(start).Seconds()
	if err != nil {
		cell.Err = err.Error()
		return cell
	}
	cell.Mean, cell.Std = res.Mean(), res.Std()
	cell.Final = res.History.FinalAccuracy()
	var malExcluded, benignSampled int
	for _, rec := range res.History.Rounds {
		cell.MaliciousSampled += rec.MaliciousSampled
		benignSampled += len(rec.Sampled) - rec.MaliciousSampled
		cell.Excluded += rec.Excluded()
		for _, d := range rec.Decisions {
			if d.Malicious && !d.Kept {
				malExcluded++
			}
		}
	}
	if cell.MaliciousSampled > 0 {
		cell.MaliciousExclusionRate = float64(malExcluded) / float64(cell.MaliciousSampled)
	}
	if benignSampled > 0 {
		cell.BenignExclusionRate = float64(cell.Excluded-malExcluded) / float64(benignSampled)
	}
	return cell
}

func cellEvent(c MatrixCell) telemetry.MatrixCellCompleted {
	return telemetry.MatrixCellCompleted{
		Scenario:               c.Scenario.ID,
		Strategy:               c.Strategy,
		MeanAccuracy:           c.Mean,
		StdAccuracy:            c.Std,
		FinalAccuracy:          c.Final,
		MaliciousExclusionRate: c.MaliciousExclusionRate,
		BenignExclusionRate:    c.BenignExclusionRate,
		Seconds:                c.Seconds,
		Err:                    c.Err,
	}
}

func printCell(w io.Writer, c MatrixCell) {
	if c.Err != "" {
		fmt.Fprintf(w, "%s / %s: ERROR %s\n", c.Scenario.ID, c.Strategy, c.Err)
		return
	}
	fmt.Fprintf(w, "%s / %s: mean %.4f ± %.4f (final %.4f, excl mal %.2f ben %.2f) [%.1fs]\n",
		c.Scenario.ID, c.Strategy, c.Mean, c.Std, c.Final,
		c.MaliciousExclusionRate, c.BenignExclusionRate, c.Seconds)
}

// WriteMatrixCSV writes the sweep long-form, one row per cell in grid
// order. The output is a pure function of the cell numbers — wall-clock
// columns are deliberately omitted — so two sweeps of the same grid and
// seed produce byte-identical files at any worker count.
func WriteMatrixCSV(w io.Writer, cells []MatrixCell) error {
	if _, err := io.WriteString(w, "scenario,attack,malicious_fraction,strategy,"+
		"mean_accuracy,std_accuracy,final_accuracy,"+
		"malicious_exclusion_rate,benign_exclusion_rate,excluded,malicious_sampled,err\n"); err != nil {
		return err
	}
	for _, c := range cells {
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

// WriteMatrixJSON writes the cells as an indented JSON array (including
// per-cell wall-clock, so it is informative but not byte-stable).
func WriteMatrixJSON(w io.Writer, cells []MatrixCell) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cells)
}

// FormatMatrixTable renders a Table-IV-style pivot: scenarios down,
// strategies across, "mean±std" per cell (plus the malicious exclusion
// rate in brackets for defenses that excluded anyone).
func FormatMatrixTable(cells []MatrixCell) string {
	var scenarios []string
	var strategies []string
	seenSc := make(map[string]bool)
	seenSt := make(map[string]bool)
	byKey := make(map[string]MatrixCell, len(cells))
	for _, c := range cells {
		if !seenSc[c.Scenario.ID] {
			seenSc[c.Scenario.ID] = true
			scenarios = append(scenarios, c.Scenario.ID)
		}
		if !seenSt[c.Strategy] {
			seenSt[c.Strategy] = true
			strategies = append(strategies, c.Strategy)
		}
		byKey[c.Scenario.ID+"\x00"+c.Strategy] = c
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-20s", "scenario")
	for _, st := range strategies {
		fmt.Fprintf(&b, " %22s", st)
	}
	b.WriteByte('\n')
	for _, sc := range scenarios {
		fmt.Fprintf(&b, "%-20s", sc)
		for _, st := range strategies {
			c, ok := byKey[sc+"\x00"+st]
			switch {
			case !ok:
				fmt.Fprintf(&b, " %22s", "-")
			case c.Err != "":
				fmt.Fprintf(&b, " %22s", "ERROR")
			case c.Excluded > 0:
				fmt.Fprintf(&b, " %13.4f±%.4f*", c.Mean, c.Std)
			default:
				fmt.Fprintf(&b, " %14.4f±%.4f", c.Mean, c.Std)
			}
		}
		b.WriteByte('\n')
	}
	if strings.Contains(b.String(), "*") {
		b.WriteString("* excluded updates; see malicious_exclusion_rate in the CSV/JSON output\n")
	}
	return b.String()
}
