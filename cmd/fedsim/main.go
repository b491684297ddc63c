// Command fedsim runs a single federated-learning experiment: one attack
// scenario under one aggregation strategy at a chosen scale, streaming
// per-round progress and finishing with summary statistics.
//
// Examples:
//
//	fedsim -scenario sign-flip-50 -strategy FedGuard
//	fedsim -scenario label-flip-40 -strategy FedGuard -server-lr 0.3
//	fedsim -preset paper -scenario additive-noise-50 -strategy Spectral
//	fedsim -list
//
// With -matrix, fedsim instead sweeps an attack×strategy grid (the
// adversary-suite evaluation) on experiment.RunMatrix and prints it as
// Table IV, strategies as rows:
//
//	fedsim -preset quick -matrix -matrix-workers 4
//	fedsim -matrix -matrix-scenarios sign-flip-50,alie-30,decoder-forge-30 \
//	       -matrix-strategies FedAvg,Krum,FedGuard -matrix-csv matrix.csv
//
// The flags that shape or report a single run (-scenario, -strategy,
// -csv, -checkpoint-dir, …) are refused with -matrix.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"fedguard/internal/experiment"
	"fedguard/internal/fl"
	"fedguard/internal/metrics"
	"fedguard/internal/persist"
	"fedguard/internal/telemetry"
)

// matrixRefuses lists the flags a -matrix sweep has no use for: its cells
// come from -matrix-scenarios and -matrix-strategies, and run silent,
// without per-run output, telemetry or checkpoints.
var matrixRefuses = []string{"scenario", "strategy", "csv", "confusion", "save",
	"checkpoint-dir", "checkpoint-every", "resume", "trace"}

// The command line: cli holds the flags fedsim shares with fednode.
var (
	cli       = experiment.BindFlags(flag.CommandLine, experiment.PresetDefault)
	serverLR  = flag.Float64("server-lr", 0, "override server learning rate (0 = preset value)")
	seed      = flag.Uint64("seed", 0, "override experiment seed (0 = preset value)")
	rounds    = flag.Int("rounds", 0, "override round count (0 = preset value)")
	samples   = flag.Int("samples", 0, "override FedGuard synthetic sample count t (0 = preset value)")
	csv       = flag.Bool("csv", false, "emit the per-round accuracy series as CSV on stdout")
	confusion = flag.Bool("confusion", false, "print the final model's confusion matrix on the test set")
	save      = flag.String("save", "", "write the final global model checkpoint to this path")
	list      = flag.Bool("list", false, "list scenarios and strategies, then exit")

	matrix           = flag.Bool("matrix", false, "sweep an attack×strategy grid instead of a single run")
	matrixWorkers    = flag.Int("matrix-workers", 1, "concurrent matrix cells (results identical at any value)")
	matrixScenarios  = flag.String("matrix-scenarios", "", "comma-separated scenario IDs for -matrix (default: the adversary-suite grid)")
	matrixStrategies = flag.String("matrix-strategies", "", "comma-separated strategies for -matrix (default: FedAvg,Krum,FedGuard)")
	matrixCSV        = flag.String("matrix-csv", "", "write the -matrix results as deterministic long-form CSV to this path")
	matrixJSON       = flag.String("matrix-json", "", "write the -matrix results as JSON to this path")
)

func main() {
	flag.Parse()
	if err := cli.Validate(); err != nil {
		fatal(err)
	}

	if *list {
		fmt.Println("scenarios:")
		for _, sc := range experiment.Scenarios() {
			fmt.Printf("  %-18s %s\n", sc.ID, sc.Description)
		}
		fmt.Println("strategies:")
		fmt.Printf("  %s\n", strings.Join(experiment.ExtendedStrategyNames(), ", "))
		return
	}

	setup, err := experiment.NewSetup(experiment.Preset(cli.Preset))
	if err != nil {
		fatal(err)
	}
	if err := applyOverrides(&setup, *rounds, *samples, *serverLR); err != nil {
		fatal(err)
	}
	if *matrix {
		if err := checkMatrixFlags(flag.CommandLine); err != nil {
			fatal(err)
		}
		if *matrixWorkers < 1 {
			fatal(fmt.Errorf("-matrix-workers = %d", *matrixWorkers))
		}
		tel, cleanup, err := cli.OpenTelemetry("fedsim", "sim")
		if err != nil {
			fatal(err)
		}
		err = runMatrixCLI(setup, tel)
		// Close before fatal's os.Exit: the cells a sweep finished before
		// failing are in the event log.
		cleanup()
		if err != nil {
			fatal(err)
		}
		return
	}

	sc, err := experiment.ScenarioByID(cli.Scenario)
	if err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "fedsim: preset=%s scenario=%s strategy=%s clients=%d m=%d rounds=%d arch=%s\n",
		cli.Preset, sc.ID, cli.Strategy, setup.NumClients, setup.PerRound, setup.Rounds, setup.ArchName)

	tel, cleanup, err := cli.OpenTelemetry("fedsim", "sim")
	if err != nil {
		fatal(err)
	}
	defer cleanup()

	opts := cli.Run
	opts.Seed, opts.Telemetry = *seed, tel
	opts.OnRound = func(rec fl.RoundRecord) {
		fmt.Fprintf(os.Stderr, "round %3d  acc=%.4f  malicious-sampled=%d/%d  %.2fs",
			rec.Round, rec.TestAccuracy, rec.MaliciousSampled, len(rec.Sampled), rec.Seconds)
		if len(rec.Decisions) > 0 {
			fmt.Fprintf(os.Stderr, "  excluded=%d", rec.Excluded())
		}
		fmt.Fprintln(os.Stderr)
	}
	res, err := experiment.Run(setup, sc, cli.Strategy, opts)
	if err != nil {
		// fatal's os.Exit skips the deferred close, and the event log of
		// a failed run, its spans included, is the one worth reading.
		cleanup()
		fatal(err)
	}

	mean, std := res.History.LastNStats(setup.LastN)
	up, down := res.History.MeanBytes()
	wireUp, wireDown := res.History.MeanWireBytes()
	fmt.Fprintf(os.Stderr,
		"done: final=%.4f  last-%d mean=%.4f ± %.4f  round-time=%.2fs  up=%.1fMB down=%.1fMB (dedup %.1f/%.1fMB)\n",
		res.History.FinalAccuracy(), setup.LastN, mean, std,
		res.History.MeanSeconds(), float64(up)/(1<<20), float64(down)/(1<<20),
		float64(wireUp)/(1<<20), float64(wireDown)/(1<<20))

	if *csv {
		if err := experiment.WriteSeriesCSV(os.Stdout, []*experiment.Result{res},
			func(r *experiment.Result) string { return r.Strategy }); err != nil {
			fatal(err)
		}
	}
	if *confusion {
		test := setup.TestData()
		idx := make([]int, test.Len())
		for i := range idx {
			idx[i] = i
		}
		cm, err := metrics.EvaluateWeights(setup.Arch, res.History.FinalWeights, test, idx)
		if err != nil {
			fatal(err)
		}
		fmt.Println(cm)
		a, p, n := cm.MostConfused()
		fmt.Printf("dominant confusion: %d predicted as %d (%d times)\n", a, p, n)
	}
	if *save != "" {
		if err := persist.SaveWeights(*save, res.History.FinalWeights); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "checkpoint written to %s (%d parameters)\n",
			*save, len(res.History.FinalWeights))
	}
}

// applyOverrides sets what -rounds, -samples and -server-lr override on
// the preset: zero keeps the preset's value, and a negative one is an
// error rather than silently the preset's.
func applyOverrides(setup *experiment.Setup, rounds, samples int, serverLR float64) error {
	switch {
	case rounds < 0:
		return fmt.Errorf("-rounds = %d", rounds)
	case samples < 0:
		return fmt.Errorf("-samples = %d", samples)
	case !(serverLR >= 0):
		return fmt.Errorf("-server-lr = %v", serverLR)
	}
	if rounds > 0 {
		setup.Rounds = rounds
	}
	if serverLR > 0 {
		setup.ServerLR = serverLR
	}
	if samples > 0 {
		setup.Samples = samples
	}
	return nil
}

// checkMatrixFlags fails on the first of matrixRefuses set explicitly on
// fs.
func checkMatrixFlags(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && slices.Contains(matrixRefuses, f.Name) {
			err = fmt.Errorf("-%s does not apply to -matrix", f.Name)
		}
	})
	return err
}

// runMatrixCLI resolves the grid from the flag values and executes the
// sweep, printing Table IV on stdout and writing the optional CSV/JSON
// artifacts.
func runMatrixCLI(setup experiment.Setup, tel *telemetry.T) error {
	scenarios := experiment.MatrixScenarios()
	if *matrixScenarios != "" {
		scenarios = scenarios[:0]
		for _, id := range strings.Split(*matrixScenarios, ",") {
			sc, err := experiment.ScenarioByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			scenarios = append(scenarios, sc)
		}
	}
	strategies := []string{"FedAvg", "Krum", "FedGuard"}
	if *matrixStrategies != "" {
		strategies = strategies[:0]
		for _, s := range strings.Split(*matrixStrategies, ",") {
			strategies = append(strategies, strings.TrimSpace(s))
		}
	}

	fmt.Fprintf(os.Stderr, "fedsim: matrix %d scenarios × %d strategies, %d worker(s)\n",
		len(scenarios), len(strategies), *matrixWorkers)
	results, err := experiment.RunMatrix(experiment.Grid(setup, scenarios, strategies),
		experiment.MatrixOptions{
			Workers:     *matrixWorkers,
			Seed:        *seed,
			StreamAudit: cli.Run.StreamAudit,
			Telemetry:   tel,
			Progress:    os.Stderr,
		})
	if err != nil {
		return err
	}
	if err := experiment.WriteTableIV(os.Stdout, results); err != nil {
		return err
	}

	if *matrixCSV != "" {
		if err := writeFileWith(*matrixCSV, func(w *os.File) error {
			return experiment.WriteMatrixCSV(w, results)
		}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fedsim: matrix CSV written to %s\n", *matrixCSV)
	}
	if *matrixJSON != "" {
		if err := writeFileWith(*matrixJSON, func(w *os.File) error {
			return experiment.WriteMatrixJSON(w, results)
		}); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fedsim: matrix JSON written to %s\n", *matrixJSON)
	}
	return nil
}

func writeFileWith(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fedsim:", err)
	os.Exit(1)
}
