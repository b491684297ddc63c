// Command benchmark is the repository's performance ledger: four fixed
// federations (FedAvg, FedGuard and Krum, in-process and over loopback
// TCP) run end to end, with the end-to-end metrics, the per-layer metrics
// and the output checks README.md defines.
//
//	go run -C benchmark .                          all four workloads, repeats, a traced run each; writes out/ledger.json
//	go run -C benchmark . --workload fedavg-inproc --seed 7 --seconds 20 --trace 0
//	                                               one workload; the last line of stdout is the result as JSON
//	go run -C benchmark . -compare a.json b.json   apply each metric's bound to two ledgers
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print its result as the last line of stdout")
		seed    = flag.Uint64("seed", 7, "workload seed: data, partition, malicious placement, sampling and client streams")
		seconds = flag.Float64("seconds", 1, "with -workload: keep running federations until this many seconds are measured (at least one)")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		smoke   = flag.Bool("smoke", false, "cut-down shapes (two rounds, tiny models) that exercise the harness in about a second per workload")
		repeats = flag.Int("repeats", 3, "untraced runs per workload in the ledger")
		outDir  = flag.String("outdir", "out", "directory for traces, checkpoints and reports")
		outFile = flag.String("out", "", "where the ledger is written (default <outdir>/ledger.json)")
		repFile = flag.String("report", "", "with -workload: also write the full report here")
		compare = flag.Bool("compare", false, "compare two ledgers: -compare base.json new.json")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two ledger files"))
		}
		base, err := readLedger(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		cur, err := readLedger(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if printCompare(os.Stdout, compareLedgers(base, cur)) > 0 {
			os.Exit(1)
		}

	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		// A run that hangs must not outlive the driver's patience.
		time.AfterFunc(childTimeout, func() { fatal(fmt.Errorf("%s: no result after %v", *name, childTimeout)) })
		rep, err := runWorkload(runOpts{workload: w, seed: *seed, seconds: *seconds, traced: *trace != 0,
			smoke: *smoke, outDir: *outDir, log: os.Stderr})
		if err != nil {
			fatal(err)
		}
		if *repFile != "" {
			if err := writeJSON(*repFile, rep); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(rep.result)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))

	default:
		l, err := runLedger(*seed, *repeats, *smoke, *outDir, os.Stderr)
		if err != nil {
			fatal(err)
		}
		l.print(os.Stdout)
		path := *outFile
		if path == "" {
			path = filepath.Join(*outDir, "ledger.json")
		}
		if err := writeJSON(path, l); err != nil {
			fatal(err)
		}
		fmt.Printf("ledger written to %s\n", path)
		if len(l.Problems) > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
