package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// A pairs directory (results/runs/pr-NN) holds one benchmark report per
// run, each written by `go run -C benchmark . -workload W -seed S
// -report F` and named
//
//	[<prefix>-]<workload>-seed<S>[-<tag>]-<pairNN|cycleNN>-<parent|change>-<first|second>.json
//
// where the prefix and tag name a series (tablev, traced, final) and the
// two runs of one pair share its index. -pairs groups the reports by
// workload, seed and series, prints one table row per end-to-end metric
// that BENCHMARK.json declares and the group's reports carry, and exits
// nonzero when final_weights_fnv64 is not one value within a group.

// report is the part of a benchmark report -pairs reads.
type report struct {
	Workload string                             `json:"workload"`
	Seed     int64                              `json:"seed"`
	Metrics  map[string]struct{ Value float64 } `json:"metrics"`
	FNV      string                             `json:"final_weights_fnv64"`
}

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name, Unit, Better string
}

// pairRun is one report with what its file name says about it.
type pairRun struct {
	report
	file, series, pair string
	change             bool
}

// groupKey identifies the runs whose parent and change sides compare.
type groupKey struct {
	workload string
	seed     int64
	series   string
}

var pairIndex = regexp.MustCompile(`^(pair|cycle)\d+$`)

// parseRunName splits a report's file name, given the workload its
// content names, into its series, pair index and side.
func parseRunName(file, workload string, seed int64) (series, pair string, change bool, err error) {
	base := strings.TrimSuffix(filepath.Base(file), ".json")
	mark := workload + "-seed" + strconv.FormatInt(seed, 10) + "-"
	i := strings.Index(base, mark)
	if i < 0 {
		return "", "", false, fmt.Errorf("%s: name does not contain %q", file, mark)
	}
	var tag []string
	if i > 0 {
		tag = append(tag, strings.TrimSuffix(base[:i], "-"))
	}
	rest := strings.Split(base[i+len(mark):], "-")
	n := len(rest)
	if n < 3 || !pairIndex.MatchString(rest[n-3]) || (rest[n-2] != "parent" && rest[n-2] != "change") {
		return "", "", false, fmt.Errorf("%s: want …-<pairNN|cycleNN>-<parent|change>-<first|second>.json", file)
	}
	tag = append(tag, rest[:n-3]...)
	return strings.Join(tag, "-"), rest[n-3], rest[n-2] == "change", nil
}

// loadPairs reads every report in dir.
func loadPairs(dir string) ([]pairRun, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no reports", dir)
	}
	runs := make([]pairRun, 0, len(files))
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		r := pairRun{file: filepath.Base(f)}
		if err := json.Unmarshal(raw, &r.report); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.series, r.pair, r.change, err = parseRunName(f, r.Workload, r.Seed); err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// loadSpec reads the end-to-end metrics from the BENCHMARK.json in dir
// or the nearest directory above it.
func loadSpec(dir string) ([]metricSpec, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for d := abs; ; d = filepath.Dir(d) {
		raw, err := os.ReadFile(filepath.Join(d, "BENCHMARK.json"))
		if err == nil {
			var spec struct {
				EndToEnd []metricSpec `json:"end_to_end"`
			}
			if err := json.Unmarshal(raw, &spec); err != nil {
				return nil, fmt.Errorf("%s: %w", filepath.Join(d, "BENCHMARK.json"), err)
			}
			return spec.EndToEnd, nil
		}
		if filepath.Dir(d) == d {
			return nil, fmt.Errorf("no BENCHMARK.json in %s or above", abs)
		}
	}
}

// quartiles returns the first quartile, median and third quartile of
// xs, interpolating linearly between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// rowScale returns the divisor and unit a row of metric unit is printed
// in: seconds as milliseconds when the parent median is below one, bytes
// as MB.
func rowScale(unit string, median float64) (float64, string) {
	switch {
	case unit == "s" && median < 1:
		return 1e-3, "ms"
	case unit == "B":
		return 1e6, "MB"
	}
	return 1, unit
}

// formatValue writes v with four significant digits, and whole from
// 10 000 up.
func formatValue(v float64) string {
	if math.Abs(v) >= 1e4 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}

// metricRow is the table row of metric m over group k's runs g, and
// false if either side lacks the metric. A pair is won when its change
// run is better than its parent run in the direction BENCHMARK.json
// gives; a pair with one side missing counts for neither.
func metricRow(k groupKey, g []pairRun, m metricSpec) (string, bool) {
	var values [2][]float64 // parent, change
	byPair := map[string]*[2]float64{}
	for _, r := range g {
		v, ok := r.Metrics[m.Name]
		if !ok {
			continue
		}
		side := 0
		if r.change {
			side = 1
		}
		values[side] = append(values[side], v.Value)
		if byPair[r.pair] == nil {
			byPair[r.pair] = &[2]float64{math.NaN(), math.NaN()}
		}
		byPair[r.pair][side] = v.Value
	}
	if len(values[0]) == 0 || len(values[1]) == 0 {
		return "", false
	}
	wins, pairs := 0, 0
	for _, v := range byPair {
		if math.IsNaN(v[0]) || math.IsNaN(v[1]) {
			continue
		}
		pairs++
		if (m.Better == "lower" && v[1] < v[0]) || (m.Better == "higher" && v[1] > v[0]) {
			wins++
		}
	}
	p1, pm, p3 := quartiles(values[0])
	c1, cm, c3 := quartiles(values[1])
	delta := "0 %"
	if cm != pm {
		delta = fmt.Sprintf("%+.1f %%", 100*(cm-pm)/pm)
	}
	div, unit := rowScale(m.Unit, pm)
	f := func(v float64) string { return formatValue(v / div) }
	return fmt.Sprintf("| %s | %d | %s | `%s` (%s) | %s [%s, %s] | %s [%s, %s] | %s | %d/%d |",
		k.workload, k.seed, k.series, m.Name, unit,
		f(pm), f(p1), f(p3), f(cm), f(c1), f(c3),
		delta, wins, pairs), true
}

// comparePairs writes the table for the reports in dir to w and returns
// one line per group whose runs do not all end on the same weights.
func comparePairs(dir string, w io.Writer) (mismatches []string, err error) {
	spec, err := loadSpec(dir)
	if err != nil {
		return nil, err
	}
	runs, err := loadPairs(dir)
	if err != nil {
		return nil, err
	}
	groups := map[groupKey][]pairRun{}
	var keys []groupKey
	for _, r := range runs {
		k := groupKey{r.Workload, r.Seed, r.series}
		if groups[k] == nil {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], r)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.seed != b.seed {
			return a.seed < b.seed
		}
		return a.series < b.series
	})

	fmt.Fprintln(w, "| workload | seed | series | metric | parent median [Q1, Q3] | change median [Q1, Q3] | change | change wins |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	var fnvLines []string
	for _, k := range keys {
		g := groups[k]
		for _, m := range spec {
			if row, ok := metricRow(k, g, m); ok {
				fmt.Fprintln(w, row)
			}
		}
		fnvs := map[string][]string{}
		for _, r := range g {
			fnvs[r.FNV] = append(fnvs[r.FNV], r.file)
		}
		name := fmt.Sprintf("%s seed %d", k.workload, k.seed)
		if k.series != "" {
			name += " (" + k.series + ")"
		}
		if len(fnvs) == 1 {
			fnvLines = append(fnvLines, fmt.Sprintf("%s: final_weights_fnv64 %s on all %d runs", name, g[0].FNV, len(g)))
			continue
		}
		var parts []string
		for fnv, files := range fnvs {
			sort.Strings(files)
			parts = append(parts, fmt.Sprintf("%s in %s", fnv, strings.Join(files, ", ")))
		}
		sort.Strings(parts)
		mismatches = append(mismatches, fmt.Sprintf("%s: final_weights_fnv64 differs: %s", name, strings.Join(parts, "; ")))
	}
	fmt.Fprintln(w)
	for _, l := range fnvLines {
		fmt.Fprintln(w, l)
	}
	return mismatches, nil
}

// runPairs is the -pairs entry point: print the table, exit nonzero on a
// weights mismatch or an unreadable directory.
func runPairs(dir string) {
	mismatches, err := comparePairs(dir, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	for _, m := range mismatches {
		fmt.Fprintf(os.Stderr, "benchjson: %s\n", m)
	}
	if len(mismatches) > 0 {
		os.Exit(1)
	}
}
