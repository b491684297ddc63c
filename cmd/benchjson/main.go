// Command benchjson reads `go test -bench` output and benchmark reports.
//
// With -guard <file> it checks the piped benchmark output against the
// ceilings committed in that file (see GuardFile) and exits nonzero on
// any regression — the `make bench-guard` CI gate.
//
//	go test -run '^$' -bench 'BenchmarkCVAEStep$' -benchtime=20x . |
//	    go run ./cmd/benchjson -guard BENCH_guard.json
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
	Name       string
	Iterations int64
	NsPerOp    float64
	Metrics    map[string]float64
}

// Snapshot is one parsed benchmark run.
type Snapshot struct {
	CPU     string
	Results []Result
}

func main() {
	guardPath := flag.String("guard", "", "threshold file: check stdin against its ceilings; exit 1 on regression")
	pairsDir := flag.String("pairs", "", "directory of parent/change benchmark reports: print medians, quartiles and wins per workload, seed and metric; exit 1 if final weights differ")
	flag.Parse()
	switch {
	case *pairsDir != "":
		runPairs(*pairsDir)
	case *guardPath != "":
		runGuard(*guardPath)
	default:
		fmt.Fprintln(os.Stderr, "benchjson: one of -guard or -pairs is required")
		flag.Usage()
		os.Exit(2)
	}
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
