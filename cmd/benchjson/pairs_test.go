package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseRunName(t *testing.T) {
	for _, c := range []struct {
		file, workload  string
		seed            int64
		series, pair    string
		change, invalid bool
	}{
		{file: "fedavg-inproc-seed71-pair01-change-second.json", workload: "fedavg-inproc", seed: 71, pair: "pair01", change: true},
		{file: "krum-tcp-raw-seed71-pair03-parent-first.json", workload: "krum-tcp-raw", seed: 71, pair: "pair03"},
		{file: "fedguard-inproc-seed71-traced-pair02-parent-second.json", workload: "fedguard-inproc", seed: 71, series: "traced", pair: "pair02"},
		{file: "tablev-fedavg-inproc-seed7-cycle05-change-second.json", workload: "fedavg-inproc", seed: 7, series: "tablev", pair: "cycle05", change: true},
		{file: "fedavg-inproc-seed7-run01.json", workload: "fedavg-inproc", seed: 7, invalid: true},
		{file: "fedavg-inproc-seed8-pair01-change-first.json", workload: "fedavg-inproc", seed: 7, invalid: true},
	} {
		series, pair, change, err := parseRunName(c.file, c.workload, c.seed)
		if c.invalid {
			if err == nil {
				t.Errorf("%s: accepted", c.file)
			}
			continue
		}
		if err != nil || series != c.series || pair != c.pair || change != c.change {
			t.Errorf("%s: got (%q, %q, %v, %v), want (%q, %q, %v)", c.file, series, pair, change, err, c.series, c.pair, c.change)
		}
	}
}

// TestPairsReproducesPR30 reads the committed runs of the 512-bit tile
// change: its claim row must come out as reported (7.29 → 6.31 s,
// −13.5 %, 10 of 10) and every group on one set of final weights.
func TestPairsReproducesPR30(t *testing.T) {
	var out bytes.Buffer
	mismatches, err := comparePairs(filepath.Join("..", "..", "results", "runs", "pr-30"), &out)
	if err != nil || len(mismatches) > 0 {
		t.Fatalf("comparePairs: %v %v", err, mismatches)
	}
	for _, want := range []string{
		"| fedguard-inproc | 71 |  | `run_s` (s) | 7.295 [7.144, 8] | 6.312 [6.183, 6.548] | -13.5 % | 10/10 |",
		"fedguard-inproc seed 71 (traced): final_weights_fnv64 bf03b9b3859e85bf on all 6 runs",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestPairsFlagsWeightsMismatch builds a directory whose change run ends
// on other weights: the table still prints, and the mismatch names both
// files.
func TestPairsFlagsWeightsMismatch(t *testing.T) {
	root := t.TempDir()
	spec := `{"end_to_end": [{"name": "run_s", "unit": "s", "better": "lower"}]}`
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "runs")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name, fnv string
		runS      float64
	}{
		{"w-seed3-pair01-parent-first", "aa", 2.0},
		{"w-seed3-pair01-change-second", "aa", 1.0},
		{"w-seed3-pair02-change-first", "aa", 3.0},
		{"w-seed3-pair02-parent-second", "bb", 2.5},
	} {
		body := fmt.Sprintf(`{"workload": "w", "seed": 3, "metrics": {"run_s": {"value": %g, "unit": "s"}}, "final_weights_fnv64": %q}`, r.runS, r.fnv)
		if err := os.WriteFile(filepath.Join(dir, r.name+".json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	mismatches, err := comparePairs(dir, &out)
	if err != nil {
		t.Fatal(err)
	}
	if want := "| w | 3 |  | `run_s` (s) | 2.25 [2.125, 2.375] | 2 [1.5, 2.5] | -11.1 % | 1/2 |"; !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q:\n%s", want, out.String())
	}
	if len(mismatches) != 1 || !strings.Contains(mismatches[0], "bb in w-seed3-pair02-parent-second.json") {
		t.Fatalf("mismatches = %q", mismatches)
	}
}
