package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"fedguard/internal/fl"
)

func TestWarmRoundsFollowSampledOnly(t *testing.T) {
	rounds := []fl.RoundRecord{
		{Round: 1, Sampled: []int{0, 1}},
		{Round: 2, Sampled: []int{1, 2}}, // 2 is new
		{Round: 3, Sampled: []int{0, 2}}, // all seen
		{Round: 4, Sampled: []int{3, 0}}, // 3 is new
		{Round: 5, Sampled: []int{3, 1}},
	}
	if got, want := isWarm(rounds), []bool{false, false, true, false, true}; !reflect.DeepEqual(got, want) {
		t.Errorf("isWarm = %v, want %v", got, want)
	}
	// Round 1 is never warm, even when it repeats a client; with no warm
	// round at all the last one stands in.
	cold := []fl.RoundRecord{{Round: 1, Sampled: []int{0, 0}}, {Round: 2, Sampled: []int{1}}}
	if got, want := isWarm(cold), []bool{false, false}; !reflect.DeepEqual(got, want) {
		t.Errorf("isWarm = %v, want %v", got, want)
	}
	if got, want := warmOrLast(cold), []bool{false, true}; !reflect.DeepEqual(got, want) {
		t.Errorf("warmOrLast = %v, want %v", got, want)
	}
}

func TestTimeToTarget(t *testing.T) {
	rounds := []fl.RoundRecord{{Seconds: 2, TestAccuracy: 0.5}, {Seconds: 1, TestAccuracy: 0.85}, {Seconds: 1, TestAccuracy: 0.9}}
	if s, n := timeToTarget(rounds, 0.8); s != 3 || n != 2 {
		t.Errorf("timeToTarget = %vs in %d rounds; want 3s in 2", s, n)
	}
	if s, n := timeToTarget(rounds, 0.95); s != 4 || n != 4 {
		t.Errorf("unreached target: %vs in %d rounds; want the whole 4s and one round more than ran", s, n)
	}
}

func TestJudgeAppliesBoundAndSpread(t *testing.T) {
	lower := metricDef{Name: "run_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "strategy.overlap_s", Better: "higher", Bound: 0.03}
	tight := func(m float64) stat { return stat{Median: m, Min: m * 0.99, Max: m * 1.01, N: 3} }
	for _, c := range []struct {
		name      string
		def       metricDef
		base, cur stat
		want      verdict
	}{
		{"within bound", lower, tight(10), tight(10.9), ok},
		{"faster is ok", lower, tight(10), tight(5), ok},
		{"beyond bound", lower, tight(10), tight(11.5), regressed},
		{"noisy base hides everything", lower, stat{Median: 10, Min: 9, Max: 10.5, N: 3}, tight(20), unresolved},
		{"noisy new side too", lower, tight(10), stat{Median: 10, Min: 9.2, Max: 10.4, N: 3}, unresolved},
		{"higher is better: drop", higher, tight(0.98), tight(0.90), regressed},
		{"higher is better: rise", higher, tight(0.90), tight(0.98), ok},
		{"nothing measured", lower, tight(10), stat{}, unresolved},
	} {
		if _, got := judge(c.def, c.base, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFlagsAnyNewFailure(t *testing.T) {
	e2e := func(run float64) map[string]stat {
		m := map[string]stat{}
		for _, d := range endToEnd {
			m[d.Name] = stat{Median: run, Min: run, Max: run, N: 3}
		}
		return m
	}
	base := &ledger{Workloads: []*ledgerWorkload{{Name: "w", Attempted: 160, EndToEnd: e2e(1)}}}
	base.Workloads[0].FinalAccuracy = 0.98
	cur := &ledger{Workloads: []*ledgerWorkload{{Name: "w", Attempted: 160, Failed: 1, FailedFrac: 1.0 / 160, FinalAccuracy: 0.95, EndToEnd: e2e(1)}}}
	rows := compareLedgers(base, cur)
	if len(rows) != len(endToEnd)+2 {
		t.Fatalf("%d rows, want one per metric and two for the outputs", len(rows))
	}
	for _, r := range rows {
		want := ok
		if r.Metric == "failed_frac" || r.Metric == "final_accuracy" {
			want = regressed
		}
		if r.Verdict != want {
			t.Errorf("%s: %s, want %s", r.Metric, r.Verdict, want)
		}
	}
}

// TestBenchmarkJSONMatchesTheProgram keeps BENCHMARK.json, which the PR
// driver reads, in step with the workloads and metrics defined here.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: %+v, want %s: %s", i, file.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, at most 200 allowed", w.Name, len(w.Why))
		}
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(file.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := file.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, want %s %s %s %v", i, got, d.Name, d.Unit, d.Better, d.Bound)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(file.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := file.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, want %s %s %s", i, got, d.Name, d.Unit, d.Better)
		}
	}
}
