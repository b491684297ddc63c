// Command fedbench regenerates every table and figure of the paper's
// evaluation section at a chosen scale, writing Markdown, CSV and SVG
// artifacts into an output directory:
//
//	table4.md / table4.csv   — Table IV (mean ± std accuracy per cell;
//	                           the CSV long-form, one row per cell)
//	table5.md                — Table V (communication and time overhead),
//	                           from Table IV's no-attack row
//	fig4_<scenario>.csv/.svg — Fig. 4 accuracy-over-rounds series
//	fig5.csv                 — Fig. 5 server-learning-rate study
//	ablation_*.csv           — §VI ablations (t sweep, inner operator,
//	                           Dirichlet α, long-form) when -ablations is set
//
// Every study is a list of experiment cells run by experiment.RunMatrix
// on one worker.
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
)

// The command line.
var (
	preset    = flag.String("preset", "default", "experiment scale: quick, default, paper")
	out       = flag.String("out", "results", "output directory")
	ablations = flag.Bool("ablations", false, "also run the §VI ablation sweeps")
	fig4Only  = flag.Bool("fig4-only", false, "run only the Fig. 4 / Table IV matrix (and Table V, its no-attack row)")
	svgFrom   = flag.String("svg-from-csv", "", "re-render an archived series CSV as SVG and exit")
)

func main() {
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

	// --- Fig. 4 + Table IV: the scenario × strategy matrix. Its no-attack
	// row is Table V. ------------------------------------------------------
	scenarios := append([]experiment.Scenario{mustScenario("no-attack")},
		experiment.TableIVScenarios()...)
	results := sweep(experiment.Grid(setup, scenarios, experiment.StrategyNames()))
	writeFile(*out, "table4.md", func(f *os.File) error {
		return experiment.WriteTableIV(f, results)
	})
	writeFile(*out, "table4.csv", func(f *os.File) error {
		return experiment.WriteMatrixCSV(f, results)
	})
	bySc := map[string][]*experiment.Result{}
	for _, r := range results {
		bySc[r.Scenario.ID] = append(bySc[r.Scenario.ID], r)
	}
	for id, rs := range bySc {
		writeFile(*out, "fig4_"+id+".csv", func(f *os.File) error {
			return experiment.WriteSeriesCSV(f, rs, func(r *experiment.Result) string { return r.Strategy })
		})
		writeFile(*out, "fig4_"+id+".svg", func(f *os.File) error {
			return experiment.WriteSVGChart(f, rs, "Fig. 4 — "+id)
		})
	}
	experiment.WriteASCIIChart(os.Stderr, results)
	writeFile(*out, "table5.md", func(f *os.File) error {
		return experiment.WriteTableV(f, bySc["no-attack"])
	})
	if *fig4Only {
		return
	}

	// --- Fig. 5: server learning rate under 40% label flipping. ---------
	var lrCells []experiment.Cell
	for _, lr := range []float64{1.0, 0.3} {
		s := setup
		s.ServerLR = lr
		lrCells = append(lrCells, experiment.Cell{Setup: s, Scenario: mustScenario("label-flip-40"),
			Strategy: "FedGuard", Label: fmt.Sprintf("FedGuard-lr-%.1f", lr)})
	}
	fig5 := sweep(lrCells)
	writeFile(*out, "fig5.csv", func(f *os.File) error {
		return experiment.WriteSeriesCSV(f, fig5, func(r *experiment.Result) string { return r.Strategy })
	})
	writeFile(*out, "fig5.svg", func(f *os.File) error {
		return experiment.WriteSVGChart(f, fig5, "Fig. 5 — FedGuard server LR, 40% label flip")
	})

	if !*ablations {
		return
	}

	// --- §VI ablations. ---------------------------------------------------
	signFlip := mustScenario("sign-flip-50")
	var tCells, alphaCells []experiment.Cell
	for _, t := range []int{setup.PerRound / 2, setup.PerRound, 2 * setup.PerRound, 4 * setup.PerRound} {
		s := setup
		s.Samples = t
		tCells = append(tCells, experiment.Cell{Setup: s, Scenario: signFlip,
			Strategy: "FedGuard", Label: fmt.Sprintf("FedGuard-t-%d", t)})
	}
	for _, a := range []float64{100, 10, 1, 0.5} {
		s := setup
		s.Alpha = a
		for _, strategy := range []string{"FedGuard", "FedGuard-routed"} {
			alphaCells = append(alphaCells, experiment.Cell{Setup: s, Scenario: mustScenario("label-flip-30"),
				Strategy: strategy, Label: fmt.Sprintf("%s-alpha-%g", strategy, a)})
		}
	}
	for _, study := range []struct {
		file  string
		cells []experiment.Cell
	}{
		{"ablation_samples.csv", tCells},
		{"ablation_inner.csv", experiment.Grid(setup, []experiment.Scenario{signFlip},
			[]string{"FedGuard", "FedGuard-GeoMed", "FedGuard-Median"})},
		{"ablation_dirichlet.csv", alphaCells},
	} {
		rs := sweep(study.cells)
		writeFile(*out, study.file, func(f *os.File) error {
			return experiment.WriteMatrixCSV(f, rs)
		})
	}
}

// sweep runs one study's cells on one worker — each run already saturates
// the client pool — with per-cell progress on stderr.
func sweep(cells []experiment.Cell) []*experiment.Result {
	results, err := experiment.RunMatrix(cells, experiment.MatrixOptions{Workers: 1, Progress: os.Stderr})
	if err != nil {
		fatal(err)
	}
	return results
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
	if err := write(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fedbench:", err)
	os.Exit(1)
}
