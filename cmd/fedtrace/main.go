// Command fedtrace is the offline timeline analyzer for traced federated
// runs: it merges the JSONL event logs exported by the server and its
// clients (telemetry.NewFileSink on each node), reconstructs every
// round's span tree across process boundaries, and prints a
// straggler/critical-path report — round wall time, the slowest client,
// the audit-vs-train cost split, retry amplification, measured bytes,
// and dropped clients with their drop reasons.
//
// Usage:
//
//	fedtrace [-format text|json] server.jsonl client0.jsonl ...
//
// Logs can be analyzed partially (server-only still yields the per-round
// table; client-side phases then show as incomplete rounds and orphan
// counts). -format json emits the Report structure for scripting.
//
// On both transports a client.round span includes the client's wait for
// a classifier worker of its process; client.train starts once it has one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	format := flag.String("format", "text", "output format: text or json")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: fedtrace [-format text|json] events.jsonl [more.jsonl ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "fedtrace: unknown -format %q\n", *format)
		os.Exit(2)
	}

	spans, err := loadFiles(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "fedtrace: %v\n", err)
		os.Exit(1)
	}
	rep, err := analyze(buildForest(spans))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fedtrace: %v\n", err)
		os.Exit(1)
	}
	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(os.Stderr, "fedtrace: %v\n", err)
			os.Exit(1)
		}
	default:
		writeText(os.Stdout, rep)
	}
}
