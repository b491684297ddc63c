// Command fednode runs one node of a networked federation — the
// deployment shape of the paper's Grid'5000 evaluation (one server node,
// clients elsewhere, Ethernet in between).
//
// Server (binds, waits for all clients, drives R rounds, prints history):
//
//	fednode -mode server -listen :7070 -preset quick \
//	        -scenario sign-flip-50 -strategy FedGuard
//
// Client (one process per federated participant):
//
//	for i in $(seq 0 15); do fednode -mode client -addr host:7070 -id $i & done
//
// Both sides derive all randomness from the shared experiment seed, so a
// networked run reproduces the in-process simulator bit for bit. A
// client process walks the shared training stream to do so but renders
// and keeps only its own partition — 100 of 3 000 images at the default
// preset (0.36 MB, 21 ms), 600 of 60 000 at the paper's (2.6 MB,
// 0.38 s) — and the server renders none: it partitions over the labels.
//
// Fault tolerance is off by default (any client failure aborts the run,
// matching the simulator's semantics). -min-clients enables graceful
// degradation; see the README's "Fault tolerance" section:
//
//	fednode -mode server -min-clients 4 -round-timeout 2m -io-timeout 30s \
//	        -retries 2 -register-timeout 5m ...
//	fednode -mode client -redial 10 ...
//
// Lossless wire compression (decoder dedup, delta-encoded models, float
// codec) engages when both endpoints pass -compress; either side
// omitting the flag keeps that connection on raw frames, and results
// are bit-identical in every combination. See the README's
// "Communication efficiency" section.
//
// Distributed tracing engages the same way: when both endpoints pass
// -trace, trace context propagates over the wire (CapTrace) and each
// node exports its half of the span tree into its -events log, e.g.
//
//	fednode -mode server -trace -events server.jsonl ...
//	fednode -mode client -id 3 -trace -events client3.jsonl ...
//	fedtrace server.jsonl client*.jsonl
//
// See the README's "Tracing" subsection.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"fedguard/internal/dataset"
	"fedguard/internal/experiment"
	"fedguard/internal/fednet"
	"fedguard/internal/fl"
	"fedguard/internal/rng"
	"fedguard/internal/telemetry"
)

func main() {
	var (
		mode     = flag.String("mode", "server", "server or client")
		listen   = flag.String("listen", ":7070", "server: listen address")
		addr     = flag.String("addr", "127.0.0.1:7070", "client: server address")
		id       = flag.Int("id", 0, "client: participant ID in [0, NumClients); the process renders and holds only this participant's partition of the training set")
		preset   = flag.String("preset", "quick", "experiment scale: quick, default, paper")
		scenario = flag.String("scenario", "no-attack", "attack scenario (see fedsim -list)")
		strategy = flag.String("strategy", "FedGuard", "aggregation strategy")

		events    = flag.String("events", "", "write a structured JSONL event log to this path (both modes)")
		debugAddr = flag.String("debug-addr", "", "server: serve /metrics, /healthz, expvar and pprof on this address")
		compress  = flag.Bool("compress", false,
			"enable lossless wire compression (decoder dedup, delta encoding, float codec); negotiated, so both endpoints must pass it")
		trace = flag.Bool("trace", false,
			"record span trees and propagate trace context over the wire (CapTrace); negotiated, so both endpoints must pass it; merge the per-node -events logs with fedtrace")
		streamAudit = flag.Bool("stream-audit", false,
			"server: audit each update as it arrives instead of after the round barrier (bit-identical results; server-side only, no negotiation)")
		aggWorkers = flag.Int("agg-workers", 0,
			"server: aggregation-kernel parallelism (0 = tensor pool default; results identical at any value)")

		minClients = flag.Int("min-clients", 0,
			"server: round quorum; > 0 drops unresponsive clients instead of aborting (0 = strict)")
		roundTimeout = flag.Duration("round-timeout", 0,
			"server: straggler budget for one round's client phase (0 = unbounded)")
		ioTimeout = flag.Duration("io-timeout", 0,
			"server: deadline for each wire send/receive (0 = unbounded)")
		retries = flag.Int("retries", 0,
			"server: per-client retries after transient errors within a round")
		registerTimeout = flag.Duration("register-timeout", 0,
			"server: start once min-clients registered and this long has passed (0 = wait for all)")
		redial = flag.Int("redial", 0,
			"client: reconnection attempts after a broken session (0 = fail fast)")
		ckptDir = flag.String("checkpoint-dir", "",
			"server: persist a crash-safe run checkpoint to this directory after each round: checkpoint.fgc rewritten per round, one write-once dec-<client>-<hash>.fgw per cached decoder; stale dec-* files there are pruned")
		ckptEvery = flag.Int("checkpoint-every", 1,
			"server: checkpoint cadence in rounds (with -checkpoint-dir)")
		resume = flag.Bool("resume", false,
			"server: resume from the checkpoint in -checkpoint-dir (cold start if absent); clients rejoin via -redial")
	)
	flag.Parse()

	if *resume && *ckptDir == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint-dir"))
	}
	if *ckptEvery < 0 {
		fatal(fmt.Errorf("-checkpoint-every = %d", *ckptEvery))
	}
	if *aggWorkers < 0 {
		fatal(fmt.Errorf("-agg-workers = %d", *aggWorkers))
	}

	switch *mode {
	case "client":
		opts := fednet.ClientOptions{
			Redials:  *redial,
			Compress: *compress,
			Trace:    *trace,
		}
		var sink *telemetry.FileSink
		if *events != "" {
			var err error
			if sink, err = telemetry.NewFileSink(*events); err != nil {
				fatal(err)
			}
			opts.Telemetry = telemetry.New(sink)
			if *trace {
				opts.Telemetry.EnableTracing(fmt.Sprintf("client-%d", *id))
			}
		}
		err := fednet.RunClientResilient(*addr, *id, opts)
		if sink != nil {
			// Flush the span log even when the session ends in an error —
			// a dropped client's trace is exactly the interesting one.
			if cerr := sink.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if err != nil {
			fatal(err)
		}
	case "server":
		ft := faultTolerance{
			MinClients:      *minClients,
			RoundTimeout:    *roundTimeout,
			IOTimeout:       *ioTimeout,
			Retries:         *retries,
			RegisterTimeout: *registerTimeout,
		}
		ck := checkpointing{Dir: *ckptDir, Every: *ckptEvery, Resume: *resume}
		if err := runServer(*listen, *preset, *scenario, *strategy, *events, *debugAddr, *compress, *trace, *streamAudit, *aggWorkers, ft, ck); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

// faultTolerance carries the server's degradation knobs from flags to
// fednet.Config.
type faultTolerance struct {
	MinClients      int
	RoundTimeout    time.Duration
	IOTimeout       time.Duration
	Retries         int
	RegisterTimeout time.Duration
}

// checkpointing carries the server's crash-recovery knobs from flags to
// fednet.Config.
type checkpointing struct {
	Dir    string
	Every  int
	Resume bool
}

func runServer(listen, preset, scenarioID, strategyName, events, debugAddr string, compress, trace, streamAudit bool, aggWorkers int, ft faultTolerance, ck checkpointing) error {
	setup, err := experiment.NewSetup(experiment.Preset(preset))
	if err != nil {
		return err
	}

	var tel *telemetry.T
	if events != "" || debugAddr != "" || trace {
		tel = telemetry.New(nil)
		if events != "" {
			sink, err := telemetry.NewFileSink(events)
			if err != nil {
				return err
			}
			defer sink.Close()
			tel.Events = sink
		}
		if debugAddr != "" {
			ds, err := telemetry.ServeDebug(debugAddr, tel.Metrics)
			if err != nil {
				return err
			}
			defer ds.Close()
			fmt.Fprintf(os.Stderr, "fednode: debug endpoints on http://%s/\n", ds.Addr())
		}
		if trace {
			if events == "" {
				fmt.Fprintln(os.Stderr,
					"fednode: -trace without -events feeds the phase histograms only; add -events to export spans for fedtrace")
			}
			tel.EnableTracing("server")
		}
	}
	sc, err := experiment.ScenarioByID(scenarioID)
	if err != nil {
		return err
	}
	strat, err := experiment.NewStrategy(strategyName, setup)
	if err != nil {
		return err
	}

	expCfg := fl.FederationConfig{
		NumClients:        setup.NumClients,
		PerRound:          setup.PerRound,
		Rounds:            setup.Rounds,
		Alpha:             setup.Alpha,
		ServerLR:          setup.ServerLR,
		MaliciousFraction: sc.MaliciousFraction,
		Client: fl.ClientConfig{
			Arch:       setup.Arch,
			Train:      setup.Train,
			CVAE:       setup.CVAE,
			CVAETrain:  setup.CVAETrain,
			NumClasses: 10,
		},
		TestSubset:  setup.TestSubset,
		AggWorkers:  aggWorkers,
		Seed:        setup.Seed,
		StreamAudit: streamAudit,
	}
	cfg := fednet.Config{
		Experiment: expCfg,
		AttackName: sc.Attack,
		ArchName:   setup.ArchName,
		DataSeed:   rng.DeriveSeed(setup.Seed, "traindata", 0),
		TrainSize:  setup.TrainSize,
		Telemetry:  tel,

		MinClientsPerRound: ft.MinClients,
		RoundTimeout:       ft.RoundTimeout,
		IOTimeout:          ft.IOTimeout,
		MaxRetries:         ft.Retries,
		RegisterTimeout:    ft.RegisterTimeout,

		Compress:    compress,
		Trace:       trace,
		StreamAudit: streamAudit,

		CheckpointDir:   ck.Dir,
		CheckpointEvery: ck.Every,
		Resume:          ck.Resume,
	}
	test := dataset.Generate(setup.TestSize, dataset.DefaultGenOptions(),
		rng.New(rng.DeriveSeed(setup.Seed, "testdata", 0)))

	srv, err := fednet.NewServer(cfg, test, strat)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintf(os.Stderr, "fednode: serving on %s, waiting for %d clients...\n",
		ln.Addr(), setup.NumClients)

	h, err := srv.Run(ln, func(rec fl.RoundRecord) {
		line := fmt.Sprintf("round %3d  acc=%.4f  up=%.2fMB down=%.2fMB  wire=%.2f/%.2fMB  %.2fs",
			rec.Round, rec.TestAccuracy,
			float64(rec.UploadBytes)/(1<<20), float64(rec.DownloadBytes)/(1<<20),
			float64(rec.WireUploadBytes)/(1<<20), float64(rec.WireDownloadBytes)/(1<<20),
			rec.Seconds)
		if len(rec.Dropped) > 0 {
			line += fmt.Sprintf("  dropped=%v", rec.Dropped)
		}
		fmt.Fprintln(os.Stderr, line)
	})
	if err != nil {
		return err
	}
	mean, std := h.LastNStats(setup.LastN)
	wireUp, wireDown := h.MeanWireBytes()
	fmt.Fprintf(os.Stderr, "done: final=%.4f  last-%d mean=%.4f ± %.4f  wire=%.2f/%.2fMB per round\n",
		h.FinalAccuracy(), setup.LastN, mean, std,
		float64(wireUp)/(1<<20), float64(wireDown)/(1<<20))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fednode:", err)
	os.Exit(1)
}
