package experiment

import (
	"flag"
	"fmt"
	"os"

	"fedguard/internal/telemetry"
)

// CLI is what the command-line programs share: the flags fedsim and
// fednode both take — which experiment to run, how to observe it, and
// the RunOptions that mean the same thing in-process and on a networked
// server — and the telemetry bundle those flags ask for.
type CLI struct {
	Preset, Scenario, Strategy string
	Events, DebugAddr          string
	Trace                      bool
	// Run receives -stream-audit, -checkpoint-dir, -checkpoint-every and
	// -resume.
	Run RunOptions
	// fs is the flag set BindFlags declared the flags on; Validate asks
	// it which flags the command line set.
	fs *flag.FlagSet
}

// BindFlags declares the shared flags on fs. The preset a bare
// invocation runs is the one thing the programs disagree on.
func BindFlags(fs *flag.FlagSet, defaultPreset Preset) *CLI {
	c := &CLI{fs: fs}
	fs.StringVar(&c.Preset, "preset", string(defaultPreset), "experiment scale: quick, default, paper")
	fs.StringVar(&c.Scenario, "scenario", "no-attack", "attack scenario (see fedsim -list)")
	fs.StringVar(&c.Strategy, "strategy", "FedGuard", "aggregation strategy (see fedsim -list)")
	fs.StringVar(&c.Events, "events", "", "write a structured JSONL event log to this path")
	fs.StringVar(&c.DebugAddr, "debug-addr", "", "serve /healthz, expvar and pprof on this address (e.g. 127.0.0.1:6060)")
	fs.BoolVar(&c.Trace, "trace", false,
		"record span trees, exported into the -events log (analyze with fedtrace); over the network trace context propagates (CapTrace) when both endpoints pass it")
	fs.BoolVar(&c.Run.StreamAudit, "stream-audit", false,
		"audit each update as it lands instead of after the round barrier (bit-identical results; server-side only, no negotiation)")
	fs.StringVar(&c.Run.CheckpointDir, "checkpoint-dir", "",
		"persist a crash-safe run checkpoint to this directory after each round: checkpoint.fgc rewritten per round, one write-once dec-<client>-<hash>.fgw per decoder; stale dec-* files there are pruned")
	fs.IntVar(&c.Run.CheckpointEvery, "checkpoint-every", 1, "checkpoint cadence in rounds (with -checkpoint-dir)")
	fs.BoolVar(&c.Run.Resume, "resume", false,
		"resume from the checkpoint in -checkpoint-dir (cold start if absent); networked clients rejoin via -redial")
	return c
}

// Validate rejects flag combinations no run can honour.
func (c *CLI) Validate() error {
	everySet := false
	c.fs.Visit(func(f *flag.Flag) { everySet = everySet || f.Name == "checkpoint-every" })
	switch {
	case c.Run.Resume && c.Run.CheckpointDir == "":
		return fmt.Errorf("-resume requires -checkpoint-dir")
	case everySet && c.Run.CheckpointDir == "":
		return fmt.Errorf("-checkpoint-every requires -checkpoint-dir")
	case c.Run.CheckpointEvery < 0:
		return fmt.Errorf("-checkpoint-every = %d", c.Run.CheckpointEvery)
	case c.Trace && c.Events == "":
		return fmt.Errorf("-trace requires -events")
	}
	return nil
}

// OpenTelemetry assembles the observability the flags ask for: a JSONL
// event log, span trees recorded under node into it, and a debug HTTP
// listener. Only -events builds a *T; without it the returned bundle is
// nil, which keeps every instrumentation call in the hot path a no-op.
// Messages are prefixed with prog.
func (c *CLI) OpenTelemetry(prog, node string) (tel *telemetry.T, closeAll func(), err error) {
	var closers []func()
	closeAll = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	if c.Events != "" {
		sink, err := telemetry.NewFileSink(c.Events)
		if err != nil {
			return nil, nil, err
		}
		tel = telemetry.New(sink)
		closers = append(closers, func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: event log: %v\n", prog, err)
			}
		})
		if c.Trace {
			tel.EnableTracing(node)
		}
	}
	if c.DebugAddr != "" {
		ds, err := telemetry.ServeDebug(c.DebugAddr)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: debug endpoints on http://%s/\n", prog, ds.Addr())
		closers = append(closers, func() { ds.Close() })
	}
	return tel, closeAll, nil
}
