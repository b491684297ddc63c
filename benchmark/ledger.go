package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// ledger is what a full run of the four workloads leaves behind: for each
// workload the end-to-end metrics over the repeats and the per-layer
// metrics of the traced run, the ratios derived from them, and the checks.
type ledger struct {
	Host      host              `json:"host"`
	Seed      uint64            `json:"seed"`
	Repeats   int               `json:"repeats"`
	Smoke     bool              `json:"smoke,omitempty"`
	EndToEnd  []metricDef       `json:"end_to_end"`
	PerLayer  []metricDef       `json:"per_layer"`
	Workloads []*ledgerWorkload `json:"workloads"`
	Derived   []ratio           `json:"derived"`
	Problems  []string          `json:"problems,omitempty"`
}

type ledgerWorkload struct {
	Name         string  `json:"name"`
	Why          string  `json:"why"`
	Attempted    int     `json:"attempted"`
	Failed       int     `json:"failed"`
	FailedFrac   float64 `json:"failed_frac"`
	FinalWeights string  `json:"final_weights_fnv64"`
	LogicalDown  float64 `json:"logical_down_bytes_per_round"`
	// FinalAccuracy repeats exactly on one seed, like the weights.
	FinalAccuracy float64         `json:"final_accuracy"`
	EndToEnd      map[string]stat `json:"end_to_end"`
	PerLayer      map[string]stat `json:"per_layer"`
	// SeamOverheadFrac prices the benchmark's own seams: the traced run's
	// run_s (program spans off) against the untraced median.
	SeamOverheadFrac float64    `json:"seam_overhead_frac"`
	Shares           []shareRow `json:"layer_shares,omitempty"`
}

// ratio is a derived figure given with its base, never gated.
type ratio struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Of    string  `json:"of"`
	Over  string  `json:"over"`
}

func (l *ledger) workload(name string) *ledgerWorkload {
	for _, w := range l.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// fold builds a workload's ledger entry from its untraced reports and its
// traced one (nil when that run could not be made).
func fold(w workload, plain []*report, traced *report) (*ledgerWorkload, []string) {
	lw := &ledgerWorkload{Name: w.Name, Why: w.Why, EndToEnd: map[string]stat{}, PerLayer: map[string]stat{}}
	var problems []string
	all := plain
	if traced != nil {
		all = append(append([]*report(nil), plain...), traced)
	}
	for _, r := range all {
		lw.Attempted += r.Attempted
		lw.Failed += r.Failed
		for _, p := range r.Problems {
			problems = append(problems, w.Name+": "+p)
		}
		if lw.FinalWeights == "" {
			lw.FinalWeights = r.FinalWeights
		} else if r.FinalWeights != lw.FinalWeights {
			problems = append(problems, fmt.Sprintf("%s: runs of one seed ended on different weights: %s vs %s", w.Name, lw.FinalWeights, r.FinalWeights))
		}
	}
	if len(plain) > 0 {
		lw.LogicalDown = plain[0].LogicalDown
		lw.FinalAccuracy = plain[0].FinalAccuracy
	}
	if lw.Attempted > 0 {
		lw.FailedFrac = float64(lw.Failed) / float64(lw.Attempted)
	}
	for _, d := range endToEnd {
		var v []float64
		for _, r := range plain {
			v = append(v, r.Metrics[d.Name].Value)
		}
		lw.EndToEnd[d.Name] = summarise(d.Unit, v)
	}
	if traced != nil {
		for _, d := range perLayer {
			lw.PerLayer[d.Name] = summarise(d.Unit, []float64{traced.Metrics[d.Name].Value})
		}
		lw.Shares = traced.Shares
		if base := lw.EndToEnd["run_s"].Median; base > 0 {
			lw.SeamOverheadFrac = (traced.RunS - base) / base
		}
	}
	return lw, problems
}

// derive computes the Table V ratios and the transport ratio, and checks
// that the two FedGuard workloads ended on the same weights.
func (l *ledger) derive() {
	div := func(name, metric, of, over string) {
		a, b := l.workload(of), l.workload(over)
		if a == nil || b == nil || b.EndToEnd[metric].Median == 0 {
			return
		}
		l.Derived = append(l.Derived, ratio{Name: name, Value: a.EndToEnd[metric].Median / b.EndToEnd[metric].Median,
			Of: of + "." + metric, Over: over + "." + metric})
	}
	div("tablev.time_ratio", "warm_round_s", "fedguard-inproc", "fedavg-inproc")
	div("tablev.post_barrier_ratio", "post_barrier_s", "fedguard-inproc", "fedavg-inproc")
	if a, b := l.workload("fedguard-inproc"), l.workload("fedavg-inproc"); a != nil && b != nil && b.LogicalDown > 0 {
		l.Derived = append(l.Derived, ratio{Name: "tablev.down_ratio", Value: a.LogicalDown / b.LogicalDown,
			Of: a.Name + ".logical_down_bytes_per_round", Over: b.Name + ".logical_down_bytes_per_round"})
	}
	div("tcp_over_inproc_ratio", "warm_round_s", "fedguard-tcp", "fedguard-inproc")
	a, b := l.workload("fedguard-inproc"), l.workload("fedguard-tcp")
	if a != nil && b != nil && a.FinalWeights != b.FinalWeights {
		l.Problems = append(l.Problems, fmt.Sprintf("fedguard-inproc and fedguard-tcp ended on different weights: %s vs %s", a.FinalWeights, b.FinalWeights))
	}
}

// childTimeout bounds one workload run made for the ledger.
const childTimeout = 175 * time.Second

// runChild runs one workload in a fresh process of this binary, so pools,
// heap and peak memory are not shared between workloads, and reads back
// the report it writes.
func runChild(w workload, seed uint64, traced, smoke bool, outDir string, log io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("report-%s-%d.json", w.Name, os.Getpid()))
	defer os.Remove(path)
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"--workload", w.Name, "--seed", strconv.FormatUint(seed, 10), "--seconds", "1",
		"--trace", trace, "-outdir", outDir, "-report", path}
	if smoke {
		args = append(args, "-smoke")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = log
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// runLedger runs every workload repeats times untraced and once traced. A
// workload whose child cannot be run is recorded as failed; the ledger
// goes on.
func runLedger(seed uint64, repeats int, smoke bool, outDir string, log io.Writer) (*ledger, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	l := &ledger{Host: fingerprint(), Seed: seed, Repeats: repeats, Smoke: smoke, EndToEnd: endToEnd, PerLayer: perLayer}
	l.Host.Commit = gitCommit()
	setup, _ := shapes(smoke)
	for _, w := range workloads {
		var plain []*report
		for i := 0; i < repeats; i++ {
			rep, err := runChild(w, seed, false, smoke, outDir, log)
			if err != nil {
				l.Problems = append(l.Problems, err.Error())
				plain = append(plain, &report{result: result{Attempted: setup.Rounds * setup.PerRound, Failed: setup.Rounds * setup.PerRound}})
				break
			}
			plain = append(plain, rep)
		}
		traced, err := runChild(w, seed, true, smoke, outDir, log)
		if err != nil {
			l.Problems = append(l.Problems, err.Error())
		}
		lw, problems := fold(w, plain, traced)
		l.Workloads = append(l.Workloads, lw)
		l.Problems = append(l.Problems, problems...)
	}
	l.derive()
	return l, nil
}

func (l *ledger) print(w io.Writer) {
	fmt.Fprintf(w, "seed %d, %d repeats, %d cores (GOMAXPROCS %d), %s, %s kernels, %s, commit %s\n",
		l.Seed, l.Repeats, l.Host.NumCPU, l.Host.GOMAXPROCS, l.Host.GoVersion, l.Host.Kernels, l.Host.CPUModel, l.Host.Commit)
	for _, lw := range l.Workloads {
		fmt.Fprintf(w, "\n%s  weights %s  final accuracy %.4f  failed %d of %d attempts (failed_frac %.4f)\n",
			lw.Name, lw.FinalWeights, lw.FinalAccuracy, lw.Failed, lw.Attempted, lw.FailedFrac)
		fmt.Fprintf(w, "  %-32s %14s %14s %14s %3s  %-6s %s\n", "end-to-end", "median", "min", "max", "n", "unit", "bound")
		for _, d := range endToEnd {
			s := lw.EndToEnd[d.Name]
			fmt.Fprintf(w, "  %-32s %14.6g %14.6g %14.6g %3d  %-6s %.0f%%\n", d.Name, s.Median, s.Min, s.Max, s.N, d.Unit, 100*d.Bound)
		}
		fmt.Fprintf(w, "  %-32s %14s  %s\n", "per-layer", "value", "unit")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-32s %14.6g  %s\n", d.Name, lw.PerLayer[d.Name].Median, d.Unit)
		}
		fmt.Fprintf(w, "  %-32s %14.6g  frac\n", "seam_overhead_frac", lw.SeamOverheadFrac)
		printShares(w, lw.Shares)
	}
	fmt.Fprintln(w, "\nderived (not gated):")
	for _, r := range l.Derived {
		fmt.Fprintf(w, "  %-28s %8.4f  = %s / %s\n", r.Name, r.Value, r.Of, r.Over)
	}
	for _, p := range l.Problems {
		fmt.Fprintf(w, "PROBLEM: %s\n", p)
	}
}

func readLedger(path string) (*ledger, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	l := &ledger{}
	if err := json.Unmarshal(b, l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// verdict is what -compare says about one metric on one workload.
type verdict string

const (
	ok         verdict = "ok"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

type compareRow struct {
	Workload string
	Metric   string
	Base     stat
	New      stat
	Worse    float64 // share of the base median by which new is worse; negative when better
	Bound    float64
	Verdict  verdict
}

// judge applies a metric's bound. Where either side's own runs are spread
// wider than the bound, or there is nothing to compare, the pair is
// unresolved, never "unchanged".
func judge(d metricDef, base, cur stat) (worse float64, v verdict) {
	if base.N == 0 || cur.N == 0 || base.Median == 0 {
		return 0, unresolved
	}
	worse = (cur.Median - base.Median) / base.Median
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case base.spread() > d.Bound || cur.spread() > d.Bound:
		return worse, unresolved
	case worse > d.Bound:
		return worse, regressed
	}
	return worse, ok
}

// accuracySlack is how far final accuracy may fall, in absolute terms,
// between two ledgers of one seed.
const accuracySlack = 0.02

// compareLedgers gives one row per workload and end-to-end metric, plus two
// per workload for the outputs. For those two rows worse and bound are
// absolute differences, not shares.
func compareLedgers(base, cur *ledger) []compareRow {
	var rows []compareRow
	for _, bw := range base.Workloads {
		cw := cur.workload(bw.Name)
		if cw == nil {
			cw = &ledgerWorkload{}
		}
		for _, d := range endToEnd {
			row := compareRow{Workload: bw.Name, Metric: d.Name, Base: bw.EndToEnd[d.Name], New: cw.EndToEnd[d.Name], Bound: d.Bound}
			row.Worse, row.Verdict = judge(d, row.Base, row.New)
			rows = append(rows, row)
		}
		// Outputs: accuracy may not fall by more than accuracySlack, and
		// failures may not rise at all.
		acc := compareRow{Workload: bw.Name, Metric: "final_accuracy", Verdict: ok, Bound: accuracySlack,
			Base: stat{Unit: "frac", Median: bw.FinalAccuracy, N: 1}, New: stat{Unit: "frac", Median: cw.FinalAccuracy, N: 1}}
		if acc.Worse = bw.FinalAccuracy - cw.FinalAccuracy; acc.Worse > accuracySlack {
			acc.Verdict = regressed
		}
		failed := compareRow{Workload: bw.Name, Metric: "failed_frac", Verdict: ok,
			Base: stat{Unit: "frac", Median: bw.FailedFrac, N: 1}, New: stat{Unit: "frac", Median: cw.FailedFrac, N: 1}}
		if failed.Worse = cw.FailedFrac - bw.FailedFrac; failed.Worse > 0 || cw.Attempted == 0 {
			failed.Verdict = regressed
		}
		rows = append(rows, acc, failed)
	}
	return rows
}

func printCompare(w io.Writer, rows []compareRow) (regressions int) {
	fmt.Fprintf(w, "%-16s %-28s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "new", "worse", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-28s %14.6g %14.6g %8.2f%% %6.1f%%  %s\n",
			r.Workload, r.Metric, r.Base.Median, r.New.Median, 100*r.Worse, 100*r.Bound, r.Verdict)
		if r.Verdict == regressed {
			regressions++
		}
	}
	return regressions
}
