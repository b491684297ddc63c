// Command fedbench regenerates every table and figure of the paper's
// evaluation section at a chosen scale, writing Markdown, CSV and SVG
// artifacts into an output directory:
//
//	table4.md / table4.csv   — Table IV (mean ± std accuracy per cell)
//	table5.md                — Table V (communication and time overhead)
//	fig4_<scenario>.csv/.svg — Fig. 4 accuracy-over-rounds series
//	fig5.csv                 — Fig. 5 server-learning-rate study
//	ablation_*.csv           — §VI ablations (t sweep, inner operator,
//	                           Dirichlet α) when -ablations is set
//
// Example:
//
//	fedbench -preset default -out results/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fedguard/internal/experiment"
	"fedguard/internal/telemetry"
)

func main() {
	var (
		preset     = flag.String("preset", "default", "experiment scale: quick, default, paper")
		out        = flag.String("out", "results", "output directory")
		ablations  = flag.Bool("ablations", false, "also run the §VI ablation sweeps")
		fig4Only   = flag.Bool("fig4-only", false, "run only the Fig. 4 / Table IV matrix")
		svgFrom    = flag.String("svg-from-csv", "", "re-render an archived series CSV as SVG and exit")
		metricsOut = flag.String("metrics-out", "", "write every run's summary statistics as a JSON metrics snapshot")
		events     = flag.String("events", "", "write every run's structured JSONL event log (and spans with -trace) to this path")
		trace      = flag.Bool("trace", false, "record span trees for every run (exported into the -events log; analyze with fedtrace)")
	)
	flag.Parse()

	if *svgFrom != "" {
		if err := svgFromCSV(*svgFrom); err != nil {
			fatal(err)
		}
		return
	}

	setup, err := experiment.NewSetup(experiment.Preset(*preset))
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	log := os.Stderr

	// One telemetry bundle is threaded through every run of the bench
	// (experiment.Setup.Telemetry): its registry collects the per-phase
	// histograms and final summary gauges for -metrics-out, and its sink
	// streams events — plus span trees under -trace — into -events.
	tel, closeTel, err := (&experiment.CLI{Events: *events, Trace: *trace}).OpenTelemetry("fedbench", "bench", *metricsOut)
	if err != nil {
		fatal(err)
	}
	defer closeTel()
	if tel == nil {
		// RecordResults needs a registry even when nobody asked to see it.
		tel = telemetry.New(nil)
	}
	setup.Telemetry = tel
	reg := tel.Metrics

	// --- Fig. 4 + Table IV: the scenario × strategy matrix. -------------
	scenarios := append([]experiment.Scenario{mustScenario("no-attack")},
		experiment.TableIVScenarios()...)
	results, err := experiment.RunMatrix(setup, scenarios, experiment.StrategyNames(), log)
	if err != nil {
		fatal(err)
	}
	experiment.RecordResults(reg, results)
	writeFile(*out, "table4.md", func(f *os.File) error {
		return experiment.WriteTableIV(f, results)
	})
	writeFile(*out, "table4.csv", func(f *os.File) error {
		return experiment.WriteTableIVCSV(f, results)
	})
	bySc := map[string][]*experiment.Result{}
	for _, r := range results {
		bySc[r.Scenario.ID] = append(bySc[r.Scenario.ID], r)
	}
	for id, rs := range bySc {
		rs := rs
		writeFile(*out, "fig4_"+id+".csv", func(f *os.File) error {
			return experiment.WriteSeriesCSV(f, rs, func(r *experiment.Result) string { return r.Strategy })
		})
		writeFile(*out, "fig4_"+id+".svg", func(f *os.File) error {
			return experiment.WriteSVGChart(f, rs, "Fig. 4 — "+id)
		})
	}
	experiment.WriteASCIIChart(log, results)
	if *fig4Only {
		return
	}

	// --- Fig. 5: server learning rate under 40% label flipping. ---------
	fig5, err := experiment.Fig5(setup, []float64{1.0, 0.3}, log)
	if err != nil {
		fatal(err)
	}
	experiment.RecordResults(reg, fig5)
	writeFile(*out, "fig5.csv", func(f *os.File) error {
		return experiment.WriteSeriesCSV(f, fig5, func(r *experiment.Result) string { return r.Strategy })
	})
	writeFile(*out, "fig5.svg", func(f *os.File) error {
		return experiment.WriteSVGChart(f, fig5, "Fig. 5 — FedGuard server LR, 40% label flip")
	})

	// --- Table V: per-round traffic and time. ----------------------------
	rows, overheadResults, err := experiment.Overhead(setup, experiment.StrategyNames(), log)
	if err != nil {
		fatal(err)
	}
	experiment.RecordResults(reg, overheadResults)
	writeFile(*out, "table5.md", func(f *os.File) error {
		return experiment.WriteTableV(f, rows)
	})

	if !*ablations {
		return
	}

	// --- §VI ablations. ---------------------------------------------------
	tRes, err := experiment.AblationSamples(setup, "sign-flip-50",
		[]int{setup.PerRound / 2, setup.PerRound, 2 * setup.PerRound, 4 * setup.PerRound}, log)
	if err != nil {
		fatal(err)
	}
	experiment.RecordResults(reg, tRes)
	writeFile(*out, "ablation_samples.csv", func(f *os.File) error {
		return experiment.WriteTableIVCSV(f, tRes)
	})
	innerRes, err := experiment.AblationInner(setup, "sign-flip-50", log)
	if err != nil {
		fatal(err)
	}
	experiment.RecordResults(reg, innerRes)
	writeFile(*out, "ablation_inner.csv", func(f *os.File) error {
		return experiment.WriteTableIVCSV(f, innerRes)
	})
	alphaRes, err := experiment.AblationDirichlet(setup, "label-flip-30",
		[]float64{100, 10, 1, 0.5}, log)
	if err != nil {
		fatal(err)
	}
	experiment.RecordResults(reg, alphaRes)
	writeFile(*out, "ablation_dirichlet.csv", func(f *os.File) error {
		return experiment.WriteTableIVCSV(f, alphaRes)
	})
}

// svgFromCSV re-renders an archived WriteSeriesCSV file as an SVG chart
// next to it.
func svgFromCSV(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	results, err := experiment.ResultsFromSeriesCSV(f)
	if err != nil {
		return err
	}
	outPath := strings.TrimSuffix(path, ".csv") + ".svg"
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := experiment.WriteSVGChart(out, results, filepath.Base(strings.TrimSuffix(path, ".csv"))); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	return nil
}

func mustScenario(id string) experiment.Scenario {
	sc, err := experiment.ScenarioByID(id)
	if err != nil {
		fatal(err)
	}
	return sc
}

func writeFile(dir, name string, write func(*os.File) error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fedbench:", err)
	os.Exit(1)
}
