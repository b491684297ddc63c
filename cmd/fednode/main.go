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
// Both sides derive all randomness from the shared experiment seed, and
// the server's configuration comes from the same Setup→federation
// mapping and data seeds fedsim runs on, so a networked run reproduces
// `fedsim` with the same -preset, -scenario and -strategy bit for bit
// (TestServerEqualsFedsim holds the config built from these flags to
// that). Like fedsim, a FedGuard server audits each update as it lands;
// no flag selects that. A client process walks the shared training
// stream to reproduce the run but renders and keeps only its own
// partition — 100 of 3 000 images at the default preset (0.36 MB,
// 21 ms), 600 of 60 000 at the paper's (2.6 MB, 0.38 s) — and the
// server renders none: it partitions over the labels.
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

	"fedguard/internal/experiment"
	"fedguard/internal/fednet"
	"fedguard/internal/fl"
)

// The command line. cli holds the flags fednode shares with fedsim; the
// server's networked knobs bind straight onto its fednet.Config and the
// client's onto its options.
var (
	cli    = experiment.BindFlags(flag.CommandLine, experiment.PresetQuick)
	mode   = flag.String("mode", "server", "server or client")
	listen = flag.String("listen", ":7070", "server: listen address")
	addr   = flag.String("addr", "127.0.0.1:7070", "client: server address")
	id     = flag.Int("id", 0, "client: participant ID in [0, NumClients); the process renders and holds only this participant's partition of the training set")

	server fednet.Config
	client fednet.ClientOptions
)

func init() {
	flag.BoolVar(&server.Compress, "compress", false,
		"enable lossless wire compression (decoder dedup, delta encoding, float codec); negotiated, so both endpoints must pass it")
	flag.IntVar(&server.MinClientsPerRound, "min-clients", 0,
		"server: round quorum; > 0 drops unresponsive clients instead of aborting (0 = strict)")
	flag.DurationVar(&server.RoundTimeout, "round-timeout", 0,
		"server: straggler budget for one round's client phase (0 = unbounded)")
	flag.DurationVar(&server.IOTimeout, "io-timeout", 0,
		"server: deadline for each wire send/receive (0 = unbounded)")
	flag.IntVar(&server.MaxRetries, "retries", 0,
		"server: per-client retries after transient errors within a round")
	flag.DurationVar(&server.RegisterTimeout, "register-timeout", 0,
		"server: start once min-clients registered and this long has passed (0 = wait for all)")
	flag.IntVar(&client.Redials, "redial", 0,
		"client: reconnection attempts after a broken session (0 = fail fast)")
}

func main() {
	flag.Parse()
	err := cli.Validate()
	if err == nil {
		switch *mode {
		case "client":
			err = runClient()
		case "server":
			err = runServer()
		default:
			err = fmt.Errorf("unknown mode %q", *mode)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fednode:", err)
		os.Exit(1)
	}
}

func runClient() error {
	tel, closeTel, err := cli.OpenTelemetry("fednode", fmt.Sprintf("client-%d", *id))
	if err != nil {
		return err
	}
	// Deferred so the span log is flushed even when the session ends in
	// an error — a dropped client's trace is exactly the interesting one.
	defer closeTel()
	opts := client
	opts.Compress, opts.Trace, opts.Telemetry = server.Compress, cli.Trace, tel
	return fednet.RunClient(*addr, *id, opts)
}

// serverConfig maps the flags onto the networked server's inputs. The
// federation shape, the data seeds and the strategy are the ones
// experiment.Run gives fedsim for the same flags, which is what makes
// the two programs the same computation.
func serverConfig() (experiment.Setup, fednet.Config, fl.Strategy, error) {
	setup, err := experiment.NewSetup(experiment.Preset(cli.Preset))
	if err != nil {
		return setup, fednet.Config{}, nil, err
	}
	sc, err := experiment.ScenarioByID(cli.Scenario)
	if err != nil {
		return setup, fednet.Config{}, nil, err
	}
	strat, err := experiment.NewStrategy(cli.Strategy, setup)
	if err != nil {
		return setup, fednet.Config{}, nil, err
	}
	cfg := server
	cfg.Experiment = setup.Federation(sc)
	cfg.AttackName = sc.Attack
	cfg.ArchName = setup.ArchName
	cfg.DataSeed = setup.TrainDataSeed()
	cfg.TrainSize = setup.TrainSize
	cfg.Trace = cli.Trace
	cfg.CheckpointDir = cli.Run.CheckpointDir
	cfg.CheckpointEvery = cli.Run.CheckpointEvery
	cfg.Resume = cli.Run.Resume
	return setup, cfg, strat, nil
}

func runServer() error {
	setup, cfg, strat, err := serverConfig()
	if err != nil {
		return err
	}
	tel, closeTel, err := cli.OpenTelemetry("fednode", "server")
	if err != nil {
		return err
	}
	defer closeTel()
	cfg.Telemetry = tel
	srv, err := fednet.NewServer(cfg, setup.TestData(), strat)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
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
