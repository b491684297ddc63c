// Command benchjson converts `go test -bench` output into a committed
// JSON snapshot file, so performance numbers live in the repository with
// a label per measurement point and regressions show up as diffs.
//
//	go test -run '^$' -bench 'BenchmarkMatMul128$' -benchmem . |
//	    go run ./cmd/benchjson -label post-overhaul -out BENCH_micro.json
//
// The output file holds a list of snapshots; re-running with an existing
// label replaces that snapshot in place, so iterating on a change keeps
// exactly one entry per label.
//
// With -guard <file> the tool instead checks the piped benchmark output
// against the ceilings committed in that file (see GuardFile) and exits
// nonzero on any regression — the `make bench-guard` CI gate.
//
// With -pairs <dir> it reads a directory of benchmark reports taken in
// alternating parent/change pairs (results/runs/pr-NN, see pairs.go) and
// prints, per workload, seed and metric, both sides' medians with their
// quartiles, the change in percent and the pairs the change won; it
// exits nonzero when the final weights differ between runs of a group.
//
//	go run ./cmd/benchjson -pairs results/runs/pr-30
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one benchmark line: the canonical ns/op plus every extra
// metric the benchmark reported (GFLOPS, samples/s, B/op, allocs/op...).
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Snapshot is one labelled measurement run.
type Snapshot struct {
	Label   string   `json:"label"`
	Date    string   `json:"date,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

// File is the committed snapshot collection.
type File struct {
	Snapshots []Snapshot `json:"snapshots"`
}

func main() {
	label := flag.String("label", "", "snapshot label (required); an existing snapshot with the same label is replaced")
	out := flag.String("out", "BENCH_micro.json", "snapshot file to create or update")
	date := flag.String("date", "", "optional date string recorded verbatim in the snapshot")
	guardPath := flag.String("guard", "", "threshold file: check stdin against its ceilings instead of snapshotting; exit 1 on regression")
	pairsDir := flag.String("pairs", "", "directory of parent/change benchmark reports: print medians, quartiles and wins per workload, seed and metric; exit 1 if final weights differ")
	flag.Parse()
	if *pairsDir != "" {
		runPairs(*pairsDir)
		return
	}
	if *guardPath != "" {
		runGuard(*guardPath)
		return
	}
	if *label == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -label is required")
		os.Exit(2)
	}

	snap, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(snap.Results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	snap.Label = *label
	snap.Date = *date

	var file File
	if raw, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(raw, &file); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: existing %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
	replaced := false
	for i := range file.Snapshots {
		if file.Snapshots[i].Label == snap.Label {
			file.Snapshots[i] = snap
			replaced = true
			break
		}
	}
	if !replaced {
		file.Snapshots = append(file.Snapshots, snap)
	}

	enc, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	verb := "added"
	if replaced {
		verb = "replaced"
	}
	fmt.Printf("benchjson: %s snapshot %q (%d results) in %s\n", verb, snap.Label, len(snap.Results), *out)
}

// parse reads `go test -bench` output: it keeps the cpu: header and every
// Benchmark* line, ignoring everything else (PASS, ok, pkg headers).
func parse(r io.Reader) (Snapshot, error) {
	var snap Snapshot
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if cpu, ok := strings.CutPrefix(line, "cpu:"); ok {
			snap.CPU = strings.TrimSpace(cpu)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, err := parseLine(line)
		if err != nil {
			return snap, fmt.Errorf("%q: %w", line, err)
		}
		snap.Results = append(snap.Results, res)
	}
	return snap, sc.Err()
}

// parseLine parses one benchmark result line:
//
//	BenchmarkName-8   1234   5678 ns/op   9.1 GFLOPS   0 B/op   0 allocs/op
//
// The trailing -N GOMAXPROCS suffix is stripped from the name. After the
// iteration count, values and units alternate.
func parseLine(line string) (Result, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, fmt.Errorf("too few fields")
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("iteration count: %w", err)
	}
	res := Result{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, fmt.Errorf("value %q: %w", fields[i], err)
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			res.NsPerOp = val
		} else {
			res.Metrics[unit] = val
		}
	}
	if len(res.Metrics) == 0 {
		res.Metrics = nil
	}
	return res, nil
}
