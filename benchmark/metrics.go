package main

import (
	"math"
	"sort"

	"fedguard/internal/fl"
)

// metricDef names one metric. Bound is the share of the baseline median
// by which an end-to-end metric may worsen before -compare (and the PR
// driver) calls it a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Doc is the definition; ledgers carry it so they can be read alone.
	Doc string `json:"doc"`
}

// endToEnd lists what a user of the system pays, in the order printed.
// BENCHMARK.json repeats name, unit, better and bound; metrics_test.go
// keeps the two in step. The bounds are sized for the PR driver, which
// compares runs of different seeds; README.md gives the spreads measured.
// Accuracy is not here: it is an output, checked for correctness, and from
// seed to seed it moves more than any bound worth having.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "data generation, strategy, NewFederation/NewServer, listen and dial launch, up to the call to Run; median over the run's set-ups"},
	{"run_s", "s", "lower", 0.25, "wall-clock of Run for the R rounds (TCP: registration included)"},
	{"warm_round_s", "s", "lower", 0.25, "median RoundRecord.Seconds over warm rounds: round >= 2 and no sampled client participating for the first time"},
	{"post_barrier_s", "s", "lower", 0.25, "median AggregateSeconds + EvalSeconds over warm rounds: the server's serial path after the last upload"},
	{"wire_up_bytes_per_round", "B", "lower", 0.15, "mean RoundRecord.WireUploadBytes (server to clients)"},
	{"wire_down_bytes_per_round", "B", "lower", 0.10, "mean RoundRecord.WireDownloadBytes (clients to server)"},
	{"allocs_per_round", "count", "lower", 0.10, "runtime.MemStats.Mallocs delta across Run, divided by R"},
	{"alloc_bytes_per_round", "B", "lower", 0.05, "runtime.MemStats.TotalAlloc delta across Run, divided by R"},
	{"peak_rss_bytes", "B", "lower", 0.25, "the process's VmHWM at exit"},
}

// isWarm reports, per round, whether it is warm: round >= 2 and every
// sampled client has participated before. It reads only Sampled, so it
// means the same in-process and over TCP.
func isWarm(rounds []fl.RoundRecord) []bool {
	seen := map[int]bool{}
	warm := make([]bool, len(rounds))
	for i, r := range rounds {
		first := false
		for _, id := range r.Sampled {
			if !seen[id] {
				first = true
				seen[id] = true
			}
		}
		warm[i] = r.Round >= 2 && !first
	}
	return warm
}

// warmOrLast is isWarm, except that a run with no warm round at all (the
// two-round smoke run) counts its last round, so the warm metrics exist.
func warmOrLast(rounds []fl.RoundRecord) []bool {
	warm := isWarm(rounds)
	for _, w := range warm {
		if w {
			return warm
		}
	}
	if len(warm) > 0 {
		warm[len(warm)-1] = true
	}
	return warm
}

// timeToTarget is the cumulative round time until accuracy first reaches
// target, and the number of rounds that took. A run that never gets there
// reports its whole time and one round more than it ran.
func timeToTarget(rounds []fl.RoundRecord, target float64) (secs float64, n int) {
	for i, r := range rounds {
		secs += r.Seconds
		if r.TestAccuracy >= target {
			return secs, i + 1
		}
	}
	return secs, len(rounds) + 1
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// stat summarises repeated measurements of one metric.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarise(unit string, v []float64) stat {
	st := stat{Unit: unit, N: len(v), Median: median(v)}
	if len(v) > 0 {
		st.Min, st.Max = math.Inf(1), math.Inf(-1)
		for _, x := range v {
			st.Min = math.Min(st.Min, x)
			st.Max = math.Max(st.Max, x)
		}
	}
	return st
}

// spread is (max - min) / |median|, the run-to-run width -compare holds
// against a metric's bound.
func (s stat) spread() float64 {
	if s.Median == 0 {
		if s.Max == s.Min {
			return 0
		}
		return math.Inf(1)
	}
	return (s.Max - s.Min) / math.Abs(s.Median)
}
