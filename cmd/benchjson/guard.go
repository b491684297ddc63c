package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// Threshold is one guarded benchmark: the measured ns/op and any extra
// metrics (allocs/op, B/op, ...) must stay at or under the recorded
// ceilings. Ceilings are deliberately loose versus the measured numbers
// — they catch order-of-magnitude regressions (a lost fast path, a
// pooling bug reintroducing per-op allocation), not CI jitter.
type Threshold struct {
	Name       string             `json:"name"`
	MaxNsPerOp float64            `json:"max_ns_per_op,omitempty"`
	MaxMetrics map[string]float64 `json:"max_metrics,omitempty"`
}

// GuardFile is the committed threshold collection read by -guard.
type GuardFile struct {
	Thresholds []Threshold `json:"thresholds"`
}

// guard checks a parsed benchmark run against the threshold file and
// returns one error line per violation. A benchmark run more than once
// (go test -count N) is judged on its fastest reading: the minimum ns/op
// and the minimum of each metric across its lines, since host load only
// ever slows a run. A guarded benchmark missing from the run is itself a
// violation — otherwise renaming a benchmark would silently disarm its
// guard.
func guard(snap Snapshot, gf GuardFile) []string {
	byName := make(map[string]Result, len(snap.Results))
	for _, r := range snap.Results {
		best, seen := byName[r.Name]
		if !seen {
			best = Result{Name: r.Name, NsPerOp: r.NsPerOp, Metrics: map[string]float64{}}
		}
		best.NsPerOp = min(best.NsPerOp, r.NsPerOp)
		for unit, v := range r.Metrics {
			if old, ok := best.Metrics[unit]; !ok || v < old {
				best.Metrics[unit] = v
			}
		}
		byName[r.Name] = best
	}
	var violations []string
	for _, th := range gf.Thresholds {
		res, ok := byName[th.Name]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: guarded benchmark missing from the run", th.Name))
			continue
		}
		if th.MaxNsPerOp > 0 && res.NsPerOp > th.MaxNsPerOp {
			violations = append(violations,
				fmt.Sprintf("%s: %.0f ns/op exceeds ceiling %.0f", th.Name, res.NsPerOp, th.MaxNsPerOp))
		}
		for unit, max := range th.MaxMetrics {
			got, ok := res.Metrics[unit]
			if !ok {
				violations = append(violations,
					fmt.Sprintf("%s: metric %q missing from the run (run with -benchmem?)", th.Name, unit))
				continue
			}
			if got > max {
				violations = append(violations,
					fmt.Sprintf("%s: %g %s exceeds ceiling %g", th.Name, got, unit, max))
			}
		}
	}
	return violations
}

// runGuard is the -guard entry point: parse stdin, load thresholds,
// exit nonzero on any violation.
func runGuard(path string) {
	snap, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(snap.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	var gf GuardFile
	if err := json.Unmarshal(raw, &gf); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", path, err)
		os.Exit(1)
	}
	if len(gf.Thresholds) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %s has no thresholds\n", path)
		os.Exit(1)
	}
	if v := guard(snap, gf); len(v) > 0 {
		for _, line := range v {
			fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s\n", line)
		}
		os.Exit(1)
	}
	fmt.Printf("benchjson: %d benchmark(s) within %s ceilings\n", len(gf.Thresholds), path)
}
