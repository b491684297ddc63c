package main

import (
	"strings"
	"testing"
)

func parseBench(t *testing.T, out string) Snapshot {
	t.Helper()
	snap, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestGuardPasses(t *testing.T) {
	snap := parseBench(t, `
cpu: Intel(R) Xeon(R)
BenchmarkWireWriteUpdate/codec-8   100   235000 ns/op   1200 B/op   3 allocs/op
PASS
`)
	gf := GuardFile{Thresholds: []Threshold{{
		Name:       "BenchmarkWireWriteUpdate/codec",
		MaxNsPerOp: 700_000,
		MaxMetrics: map[string]float64{"allocs/op": 4},
	}}}
	if v := guard(snap, gf); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

func TestGuardCatchesRegressions(t *testing.T) {
	snap := parseBench(t, `
BenchmarkWireWriteUpdate/codec-8   10   1391962 ns/op   1300000 B/op   21 allocs/op
`)
	gf := GuardFile{Thresholds: []Threshold{{
		Name:       "BenchmarkWireWriteUpdate/codec",
		MaxNsPerOp: 700_000,
		MaxMetrics: map[string]float64{"allocs/op": 4},
	}}}
	v := guard(snap, gf)
	if len(v) != 2 {
		t.Fatalf("want ns/op and allocs/op violations, got %v", v)
	}
	for _, line := range v {
		if !strings.Contains(line, "exceeds ceiling") {
			t.Fatalf("violation text: %q", line)
		}
	}
}

// TestGuardReadsFastestRepeat: with -count 3 a benchmark prints three
// lines, and the gate reads the best of them, so one loaded repeat over
// a ceiling passes beside one under it, while three over it still fail.
func TestGuardReadsFastestRepeat(t *testing.T) {
	gf := GuardFile{Thresholds: []Threshold{{
		Name:       "BenchmarkCVAEStep",
		MaxNsPerOp: 5_500_000,
		MaxMetrics: map[string]float64{"allocs/op": 0},
	}}}
	pass := parseBench(t, `
BenchmarkCVAEStep-2   20   10300000 ns/op   0 B/op   1 allocs/op
BenchmarkCVAEStep-2   20    2700000 ns/op   0 B/op   0 allocs/op
`)
	if v := guard(pass, gf); len(v) != 0 {
		t.Fatalf("one repeat under the ceilings: unexpected violations %v", v)
	}
	fail := parseBench(t, `
BenchmarkCVAEStep-2   20   10300000 ns/op   0 B/op   1 allocs/op
BenchmarkCVAEStep-2   20    6100000 ns/op   0 B/op   2 allocs/op
BenchmarkCVAEStep-2   20    5600000 ns/op   0 B/op   1 allocs/op
`)
	v := guard(fail, gf)
	if len(v) != 2 || !strings.Contains(v[0], "5600000 ns/op") || !strings.Contains(v[1], "1 allocs/op") {
		t.Fatalf("every repeat over the ceilings: want the fastest ns/op and allocs/op as violations, got %v", v)
	}
}

func TestGuardFlagsMissingBenchmarkAndMetric(t *testing.T) {
	snap := parseBench(t, `
BenchmarkSomethingElse-8   100   10 ns/op
BenchmarkWireWriteUpdate/codec-8   100   1000 ns/op
`)
	gf := GuardFile{Thresholds: []Threshold{
		{Name: "BenchmarkWireWriteUpdate/raw", MaxNsPerOp: 1},
		// allocs/op absent because the run lacked -benchmem.
		{Name: "BenchmarkWireWriteUpdate/codec", MaxMetrics: map[string]float64{"allocs/op": 4}},
	}}
	v := guard(snap, gf)
	if len(v) != 2 {
		t.Fatalf("want missing-benchmark and missing-metric violations, got %v", v)
	}
	if !strings.Contains(v[0], "missing from the run") {
		t.Fatalf("missing-benchmark text: %q", v[0])
	}
	if !strings.Contains(v[1], "-benchmem") {
		t.Fatalf("missing-metric text: %q", v[1])
	}
}
