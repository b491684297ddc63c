package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"fedguard/internal/experiment"
)

// value is one metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a workload run's standard output: the
// contract between this program and whoever drives it.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is everything a workload run knows, written with -report for the
// ledger: the result line plus what the cross-checks and the ledger need.
type report struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	result
	Problems      []string `json:"problems,omitempty"`
	FinalWeights  string   `json:"final_weights_fnv64"`
	Passes        int      `json:"passes"`
	WarmSamples   int      `json:"warm_round_samples"`
	TargetRound   int      `json:"target_round"`
	FinalAccuracy float64  `json:"final_accuracy"`
	RunS          float64  `json:"run_s"` // first measured pass; the ledger prices tracing with it
	// LogicalDown is the mean RoundRecord.DownloadBytes, the paper's Table
	// V accounting: every payload in full at 4 bytes per parameter.
	LogicalDown float64    `json:"logical_down_bytes_per_round"`
	Calibration [2]float64 `json:"calibration_s"`
	Shares      []shareRow `json:"layer_shares,omitempty"`
	Host        host       `json:"host"`
}

// runOpts are the flags of one workload run.
type runOpts struct {
	workload workload
	seed     uint64
	seconds  float64
	traced   bool
	smoke    bool
	outDir   string
	log      io.Writer // progress and the human-readable table
}

// setUpSamples is how many set-ups a run times at least; a pass gives one.
const setUpSamples = 9

// runWorkload runs one workload and returns its report. Failures of the
// federation end up in the report (Correct false, Failed > 0); the error
// is for the benchmark's own troubles.
func runWorkload(o runOpts) (*report, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	setup, floor := shapes(o.smoke)
	rep := &report{Workload: o.workload.Name, Seed: o.seed, Traced: o.traced, Host: fingerprint()}
	rep.Metrics = map[string]value{}
	rep.Calibration[0] = calibrate(probeBudget(o.smoke))

	var err error
	if o.traced {
		err = tracedRun(o, setup, floor, rep)
	} else {
		err = plainRun(o, setup, floor, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.Calibration[1] = calibrate(probeBudget(o.smoke))
	if o.traced {
		rep.Metrics["bench.calibration_s"] = value{median(rep.Calibration[:]), "s"}
	}
	rep.Correct = len(rep.Problems) == 0 && rep.Failed == 0
	printRun(o.log, rep)
	return rep, nil
}

// checkPass appends what is wrong with a finished pass to the report and
// counts its attempts.
func checkPass(p *pass, setup experiment.Setup, floor float64, rep *report) {
	attempted, failed := p.attempts(setup)
	rep.Attempted += attempted
	rep.Failed += failed
	if p.RunErr != nil {
		rep.Problems = append(rep.Problems, "run: "+p.RunErr.Error())
		return
	}
	if p.ClientErrs > 0 {
		rep.Problems = append(rep.Problems, fmt.Sprintf("%d client goroutines ended in an error", p.ClientErrs))
	}
	if _, n := timeToTarget(p.Rounds, floor); n > len(p.Rounds) {
		rep.Problems = append(rep.Problems, fmt.Sprintf("accuracy never reached %.2f: the federation did not train", floor))
	}
	hash := fmt.Sprintf("%016x", p.FinalHash)
	if rep.FinalWeights == "" {
		rep.FinalWeights = hash
	} else if rep.FinalWeights != hash {
		rep.Problems = append(rep.Problems, "passes of one seed ended on different weights: "+rep.FinalWeights+" vs "+hash)
	}
}

// plainRun measures the end-to-end metrics: federations with nothing of
// the benchmark inside them, repeated while the time budget lasts.
func plainRun(o runOpts, setup experiment.Setup, floor float64, rep *report) error {
	// The set-ups that are only timed come first, while the heap is as a
	// fresh process has it; each pass then adds its own.
	var setups []float64
	for len(setups) < setUpSamples-1 {
		s, err := timeSetUp(o.workload, setup, o.seed, o.outDir)
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}
	var passes []*pass
	begin := time.Now()
	for {
		p := runPass(o.workload, setup, o.seed, passOpts{outDir: o.outDir})
		checkPass(p, setup, floor, rep)
		passes = append(passes, p)
		setups = append(setups, p.SetupS)
		fmt.Fprintf(o.log, "pass %d: setup %.3fs run %.3fs\n", len(passes), p.SetupS, p.RunS)
		for _, r := range p.Rounds {
			fmt.Fprintf(o.log, "  round %2d  acc %.4f  %.3fs = train %.3f + aggregate %.3f + eval %.3f  malicious %d  excluded %d\n",
				r.Round, r.TestAccuracy, r.Seconds, r.TrainSeconds, r.AggregateSeconds, r.EvalSeconds, r.MaliciousSampled, r.Excluded())
		}
		// Another pass only if at least half of it fits the budget.
		if p.RunErr != nil || time.Since(begin).Seconds()+p.RunS/2 >= o.seconds {
			break
		}
	}
	rep.Passes = len(passes)
	rep.RunS = passes[0].RunS

	var runs, warm, post, allocs, allocBytes []float64
	for _, p := range passes {
		if p.RunErr != nil {
			continue
		}
		runs = append(runs, p.RunS)
		for i, w := range warmOrLast(p.Rounds) {
			if w {
				r := p.Rounds[i]
				warm = append(warm, r.Seconds)
				post = append(post, r.AggregateSeconds+r.EvalSeconds)
			}
		}
		n := float64(len(p.Rounds))
		allocs = append(allocs, float64(p.Mallocs)/n)
		allocBytes = append(allocBytes, float64(p.AllocBytes)/n)
	}
	rep.WarmSamples = len(warm)
	m := map[string]float64{
		"setup_s":               median(setups),
		"run_s":                 median(runs),
		"warm_round_s":          median(warm),
		"post_barrier_s":        median(post),
		"allocs_per_round":      median(allocs),
		"alloc_bytes_per_round": median(allocBytes),
		"peak_rss_bytes":        float64(peakRSS()),
	}
	if first := passes[0]; len(first.Rounds) > 0 {
		var up, down float64
		for _, r := range first.Rounds {
			up += float64(r.WireUploadBytes)
			down += float64(r.WireDownloadBytes)
			rep.LogicalDown += float64(r.DownloadBytes) / float64(len(first.Rounds))
		}
		_, rep.TargetRound = timeToTarget(first.Rounds, targetAccuracy)
		n := float64(len(first.Rounds))
		m["wire_up_bytes_per_round"] = up / n
		m["wire_down_bytes_per_round"] = down / n
		rep.FinalAccuracy = first.Rounds[len(first.Rounds)-1].TestAccuracy
	}
	for _, d := range endToEnd {
		rep.Metrics[d.Name] = value{m[d.Name], d.Unit}
	}
	return nil
}

// tracedRun gives the per-layer metrics. It runs the federation twice with
// the benchmark's seams in place, once with the program's own span export
// off and once with it on, so the export's cost is the difference; layer
// numbers come from the pass with it off. Which goes first alternates with
// the seed, so neither side always has the warmer process.
func tracedRun(o runOpts, setup experiment.Setup, floor float64, rep *report) error {
	opts := passOpts{spans: true, outDir: o.outDir}
	var layers, priced *pass
	order := []bool{false, true}
	if o.seed%2 == 1 {
		order = []bool{true, false}
	}
	for _, programTrace := range order {
		opts.programTrace = programTrace
		p := runPass(o.workload, setup, o.seed, opts)
		checkPass(p, setup, floor, rep)
		fmt.Fprintf(o.log, "traced pass (program spans %v): setup %.3fs run %.3fs\n", programTrace, p.SetupS, p.RunS)
		if programTrace {
			priced = p
		} else {
			layers = p
		}
	}
	rep.Passes = 2
	rep.RunS = layers.RunS
	m := map[string]float64{}
	if layers.RunErr == nil {
		ns := readConns(layers.serverConns, layers.clientConns, layers.RunStart)
		if o.workload.TCP {
			rep.Problems = append(rep.Problems, ns.checkWire(layers.Rounds)...)
		}
		spans := buildTree(layers, ns)
		roundLayerMetrics(layers, spans, ns, m)
		rep.Shares = shareTable(spans)
		for _, row := range rep.Shares {
			if row.Name == "unattributed" {
				m["trace.unattributed_frac"] = row.Share
			}
		}
		if err := writeTrace(filepath.Join(o.outDir, "trace-"+o.workload.Name+".jsonl"), spans); err != nil {
			return err
		}
		if err := runProbes(layers, o.outDir, probeBudget(o.smoke), m); err != nil {
			return fmt.Errorf("probes: %w", err)
		}
		if priced.RunErr == nil {
			m["telemetry.trace_overhead_frac"] = (priced.RunS - layers.RunS) / layers.RunS
			m["telemetry.spans"] = float64(priced.programSpans)
		}
	}
	for _, d := range perLayer {
		rep.Metrics[d.Name] = value{m[d.Name], d.Unit}
	}
	return nil
}

// printRun writes every metric by name with its unit, the layer table of
// a traced run, and whatever went wrong.
func printRun(w io.Writer, rep *report) {
	fmt.Fprintf(w, "\n%s  seed %d  %d passes  weights %s\n", rep.Workload, rep.Seed, rep.Passes, rep.FinalWeights)
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", d.Name, rep.Metrics[d.Name].Value, d.Unit)
	}
	if !rep.Traced {
		fmt.Fprintf(w, "  final accuracy %.4f, %.2f reached in round %d, %d warm-round samples\n", rep.FinalAccuracy, targetAccuracy, rep.TargetRound, rep.WarmSamples)
	}
	printShares(w, rep.Shares)
	fmt.Fprintf(w, "  attempted %d client-rounds, failed %d, calibration %.4fs / %.4fs\n",
		rep.Attempted, rep.Failed, rep.Calibration[0], rep.Calibration[1])
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// peakRSS reads VmHWM from /proc/self/status, in bytes (0 where the file
// does not exist).
func peakRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseInt(fields[0], 10, 64)
				return kb << 10
			}
		}
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
