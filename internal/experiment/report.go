package experiment

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteTableIV renders the paper's Table IV from a result matrix:
// strategies as rows, attack scenarios as columns, cells showing the mean
// ± std test accuracy over the last LastN rounds — starred when the
// defense excluded updates, ERROR when the run failed. It returns the
// first write error.
func WriteTableIV(out io.Writer, results []*Result) error {
	w := bufio.NewWriter(out)
	type key struct{ scenario, strategy string }
	cells := map[key]*Result{}
	var scenarios []string
	var strategies []string
	seenSc := map[string]bool{}
	seenSt := map[string]bool{}
	for _, r := range results {
		cells[key{r.Scenario.ID, r.Strategy}] = r
		if !seenSc[r.Scenario.ID] {
			seenSc[r.Scenario.ID] = true
			scenarios = append(scenarios, r.Scenario.ID)
		}
		if !seenSt[r.Strategy] {
			seenSt[r.Strategy] = true
			strategies = append(strategies, r.Strategy)
		}
	}

	fmt.Fprintf(w, "| Strategy |")
	for _, sc := range scenarios {
		fmt.Fprintf(w, " %s |", sc)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "|---|%s\n", strings.Repeat("---|", len(scenarios)))
	starred := false
	for _, st := range strategies {
		fmt.Fprintf(w, "| %s |", st)
		for _, sc := range scenarios {
			r, ok := cells[key{sc, st}]
			switch {
			case !ok:
				fmt.Fprintf(w, " — |")
			case r.Err != nil:
				fmt.Fprintf(w, " ERROR |")
			default:
				mark := ""
				if r.Excluded() > 0 {
					mark, starred = "*", true
				}
				fmt.Fprintf(w, " %.2f%% ± %.2f%%%s |", 100*r.Mean(), 100*r.Std(), mark)
			}
		}
		fmt.Fprintln(w)
	}
	if starred {
		fmt.Fprintln(w, "\n* excluded updates; see malicious_exclusion_rate in the CSV/JSON output")
	}
	return w.Flush()
}

// WriteTableV renders the paper's Table V from one result per strategy
// (the no-attack row of a Table IV sweep): per-round server traffic and
// training time with percentage overheads relative to the FedAvg row,
// plus the client-compute / server-defense split of the round time. It
// returns the first write error.
func WriteTableV(out io.Writer, results []*Result) error {
	w := bufio.NewWriter(out)
	type row struct{ up, down, total, secs, train, agg, eval float64 }
	rows := make([]row, len(results))
	var base *row
	for i, r := range results {
		up, down := r.History.MeanBytes()
		train, agg, eval := r.History.MeanPhaseSeconds()
		rows[i] = row{
			up: float64(up) / (1 << 20), down: float64(down) / (1 << 20),
			secs: r.History.MeanSeconds(), train: train, agg: agg, eval: eval,
		}
		rows[i].total = rows[i].up + rows[i].down
		if r.Strategy == "FedAvg" {
			base = &rows[i]
		}
	}
	pct := func(v, b float64) string {
		if b == 0 || v == b {
			return ""
		}
		return fmt.Sprintf(" (%+.0f%%)", 100*(v-b)/b)
	}
	fmt.Fprintln(w, "| Strategy | Server uploads / round | Server downloads / round | Server total / round | Round time | Client train | Server aggregate | Eval |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	for i, r := range rows {
		var upP, downP, totP, secP string
		if base != nil {
			upP, downP = pct(r.up, base.up), pct(r.down, base.down)
			totP, secP = pct(r.total, base.total), pct(r.secs, base.secs)
		}
		fmt.Fprintf(w, "| %s | %.1f MB%s | %.1f MB%s | %.1f MB%s | %.2f s%s | %.2f s | %.2f s | %.2f s |\n",
			results[i].Strategy, r.up, upP, r.down, downP, r.total, totP,
			r.secs, secP, r.train, r.agg, r.eval)
	}
	return w.Flush()
}

// WriteSeriesCSV emits per-round accuracy series (Fig. 4 / Fig. 5
// material): one column per result, one row per round. It returns the
// first write error.
func WriteSeriesCSV(out io.Writer, results []*Result, label func(*Result) string) error {
	if len(results) == 0 {
		return nil
	}
	w := bufio.NewWriter(out)
	fmt.Fprint(w, "round")
	maxRounds := 0
	for _, r := range results {
		fmt.Fprintf(w, ",%s", label(r))
		if n := len(r.History.Rounds); n > maxRounds {
			maxRounds = n
		}
	}
	fmt.Fprintln(w)
	for round := 0; round < maxRounds; round++ {
		fmt.Fprintf(w, "%d", round+1)
		for _, r := range results {
			if round < len(r.History.Rounds) {
				fmt.Fprintf(w, ",%.6f", r.History.Rounds[round].TestAccuracy)
			} else {
				fmt.Fprint(w, ",")
			}
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

// WriteASCIIChart renders accuracy series as a rough terminal line chart,
// one row per result (min..max over rounds bucketed into 40 columns).
func WriteASCIIChart(w io.Writer, results []*Result) {
	const width = 50
	for _, r := range results {
		accs := r.History.Accuracies()
		fmt.Fprintf(w, "%-22s |", fmt.Sprintf("%s/%s", r.Scenario.ID, r.Strategy))
		for i := 0; i < width; i++ {
			idx := i * len(accs) / width
			if idx >= len(accs) {
				idx = len(accs) - 1
			}
			fmt.Fprint(w, sparkChar(accs[idx]))
		}
		fmt.Fprintf(w, "| %.3f\n", accs[len(accs)-1])
	}
}

func sparkChar(v float64) string {
	ramp := []string{" ", "▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"}
	idx := int(v * float64(len(ramp)))
	if idx >= len(ramp) {
		idx = len(ramp) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return ramp[idx]
}
