package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"fedguard/internal/dataset"
	"fedguard/internal/experiment"
	"fedguard/internal/fednet"
	"fedguard/internal/fl"
	"fedguard/internal/rng"
	"fedguard/internal/telemetry"
)

// workload is one fixed federation. The four differ in which layers they
// use and how; README.md says why each exists.
type workload struct {
	Name     string
	Why      string
	Strategy string // experiment.NewStrategy name
	// Attack is an experiment.NewAttack name run by Malicious of the N
	// clients ("none" and 0 for a benign federation).
	Attack    string
	Malicious float64
	TCP       bool // fednet.Server.Run on loopback instead of fl.Federation.Run
	// The next three apply to TCP only: the codec dialect, the streaming
	// audit and a checkpoint after every round.
	Compress, StreamAudit, Checkpoint bool
}

var workloads = []workload{
	{Name: "fedavg-inproc", Strategy: "FedAvg", Attack: "none",
		Why: "plain baseline and Table V's denominator: client training dominates; cvae, defense, wire, codec and persist are idle"},
	{Name: "fedguard-inproc", Strategy: "FedGuard", Attack: "label-flip", Malicious: 0.3,
		Why: "Table V's numerator: lazy CVAE training in cold rounds, barrier synthesis and audit after every round, exclusion path active"},
	{Name: "fedguard-tcp", Strategy: "FedGuard", Attack: "label-flip", Malicious: 0.3, TCP: true,
		Compress: true, StreamAudit: true, Checkpoint: true,
		Why: "same federation over loopback TCP: fednet round loop, streaming audit, codec delta and dedup, checkpoint every round"},
	{Name: "krum-tcp-raw", Strategy: "Krum", Attack: "label-flip", Malicious: 0.3, TCP: true,
		Why: "the raw 4 B/param wire dialect and the strict barrier path with a robust aggregator; codec, cvae, defense and persist are idle"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Rounds per federation, the accuracy time-to-target is measured to, and
// the accuracy a run must reach at some round for its model to count as
// trained at all (chance is 0.10; a federation that an attack has killed
// stays there).
const (
	benchRounds    = 10
	targetAccuracy = 0.80
	saneAccuracy   = 0.50
)

// shapes returns the federation sizes and the accuracy floor:
// experiment.PresetDefault with R = 10, or for -smoke a cut-down quick
// preset that finishes in about a second and learns nothing (floor 0).
func shapes(smoke bool) (experiment.Setup, float64) {
	if !smoke {
		s := experiment.MustSetup(experiment.PresetDefault)
		s.Rounds = benchRounds
		return s, saneAccuracy
	}
	s := experiment.MustSetup(experiment.PresetQuick)
	s.Rounds = 2
	s.TrainSize, s.TestSize, s.TestSubset = 480, 100, 100
	s.Train.Epochs = 1
	s.CVAE.Hidden = 32
	s.CVAETrain.Epochs = 1
	s.Samples = 40
	return s, 0
}

// inputs is everything generated from the workload seed. The program
// sees only these.
type inputs struct {
	setup     experiment.Setup
	trainSeed uint64
	train     *dataset.Dataset
	test      *dataset.Dataset
	cfg       fl.FederationConfig
}

func makeInputs(w workload, setup experiment.Setup, seed uint64) *inputs {
	setup.Seed = seed
	in := &inputs{setup: setup, trainSeed: rng.DeriveSeed(seed, "traindata", 0)}
	opts := dataset.DefaultGenOptions()
	in.train = dataset.Generate(setup.TrainSize, opts, rng.New(in.trainSeed))
	in.test = dataset.Generate(setup.TestSize, opts, rng.New(rng.DeriveSeed(seed, "testdata", 0)))
	in.cfg = fl.FederationConfig{
		NumClients:        setup.NumClients,
		PerRound:          setup.PerRound,
		Rounds:            setup.Rounds,
		Alpha:             setup.Alpha,
		ServerLR:          setup.ServerLR,
		MaliciousFraction: w.Malicious,
		Client: fl.ClientConfig{
			Arch:       setup.Arch,
			Train:      setup.Train,
			CVAE:       setup.CVAE,
			CVAETrain:  setup.CVAETrain,
			NumClasses: 10,
		},
		TestSubset: setup.TestSubset,
		Seed:       seed,
	}
	return in
}

// passOpts selects what a pass switches on besides the federation itself.
type passOpts struct {
	// spans installs the benchmark's seams (strategy decorator, conn
	// wrappers). Off for the passes end-to-end metrics are taken from.
	spans bool
	// programTrace switches on the program's own span export, only so its
	// cost can be priced.
	programTrace bool
	// outDir is where the TCP checkpoint directory is created.
	outDir string
}

// pass is one federation run end to end.
type pass struct {
	SetupS float64
	RunS   float64
	Rounds []fl.RoundRecord
	// RoundAt is the tracer time of each onRound callback.
	RoundAt    []float64
	RunStart   float64
	FinalHash  uint64
	Mallocs    uint64
	AllocBytes uint64
	RunErr     error
	ClientErrs int

	in            *inputs
	tr            *tracer
	seam          *strategySeam
	serverConns   []*tracedConn
	clientConns   []*tracedConn
	programSpans  int
	checkpointDir string
}

// launched is a federation ready to run: everything up to the call to
// Run has happened.
type launched struct {
	run func(onRound func(fl.RoundRecord)) (*fl.History, error)
	// finish releases sockets and goroutines and returns how many client
	// goroutines ended in an error. clean says Run returned without one,
	// so every client has been sent Shutdown and ends by itself.
	finish func(clean bool) int
}

// setUp does the work setup_s times: data generation, the strategy, the
// federation or server, and for TCP the listener and the dialing clients.
func setUp(w workload, setup experiment.Setup, seed uint64, opts passOpts, p *pass) (*launched, error) {
	in := makeInputs(w, setup, seed)
	p.in = in
	strat, err := experiment.NewStrategy(w.Strategy, in.setup)
	if err != nil {
		return nil, err
	}
	if opts.spans {
		p.seam = &strategySeam{tr: p.tr}
		strat = decorate(strat, p.seam)
	}
	var sink *telemetry.CollectSink
	var tel *telemetry.T
	if opts.programTrace {
		sink = &telemetry.CollectSink{}
		tel = telemetry.New(sink)
		tel.EnableTracing("server")
	}
	countSpans := func() {
		if sink != nil {
			p.programSpans = len(sink.ByKind("Span"))
		}
	}
	if !w.TCP {
		cfg := in.cfg
		cfg.Telemetry = tel
		if w.Malicious > 0 {
			if cfg.Attack, err = experiment.NewAttack(w.Attack, seed); err != nil {
				return nil, err
			}
		}
		fed, err := fl.NewFederation(in.train, in.test, cfg)
		if err != nil {
			return nil, err
		}
		return &launched{
			run:    func(onRound func(fl.RoundRecord)) (*fl.History, error) { return fed.Run(strat, onRound) },
			finish: func(bool) int { countSpans(); return 0 },
		}, nil
	}

	ncfg := fednet.Config{
		Experiment:  in.cfg,
		AttackName:  w.Attack,
		ArchName:    in.setup.ArchName,
		DataSeed:    in.trainSeed,
		TrainSize:   in.setup.TrainSize,
		Telemetry:   tel,
		Compress:    w.Compress,
		Trace:       opts.programTrace,
		StreamAudit: w.StreamAudit,
	}
	if w.Checkpoint {
		p.checkpointDir = filepath.Join(opts.outDir, "ckpt-"+w.Name)
		if err := os.RemoveAll(p.checkpointDir); err != nil {
			return nil, err
		}
		ncfg.CheckpointDir = p.checkpointDir
	}
	srv, err := fednet.NewServer(ncfg, in.test, strat)
	if err != nil {
		return nil, err
	}
	var ln net.Listener
	if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	var tl *tracedListener
	if opts.spans {
		tl = &tracedListener{Listener: ln, tr: p.tr}
		ln = tl
	}
	addr := ln.Addr().String()
	n := in.cfg.NumClients
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		conns  []net.Conn
		closed bool
		errs   int
	)
	for id := 0; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err == nil {
				if opts.spans {
					tc := &tracedConn{Conn: conn, tr: p.tr, client: id}
					mu.Lock()
					p.clientConns = append(p.clientConns, tc)
					mu.Unlock()
					conn = tc
				}
				mu.Lock()
				conns = append(conns, conn)
				if closed {
					conn.Close()
				}
				mu.Unlock()
				copts := fednet.ClientOptions{Compress: w.Compress, Trace: opts.programTrace}
				if opts.programTrace {
					copts.Telemetry = telemetry.New(sink)
					copts.Telemetry.EnableTracing(fmt.Sprintf("client-%d", id))
				}
				err = fednet.ServeClientOpts(conn, id, copts)
			}
			mu.Lock()
			defer mu.Unlock()
			// Once the benchmark itself has hung up, errors are its doing.
			if err != nil && !closed {
				errs++
				fmt.Fprintf(os.Stderr, "bench: client %d: %v\n", id, err)
			}
		}(id)
	}
	return &launched{
		run: func(onRound func(fl.RoundRecord)) (*fl.History, error) { return srv.Run(ln, onRound) },
		finish: func(clean bool) int {
			if !clean {
				// Some clients still wait on a read; closing their side
				// of the connection ends them.
				mu.Lock()
				closed = true
				for _, c := range conns {
					c.Close()
				}
				mu.Unlock()
			}
			ln.Close()
			wg.Wait()
			if tl != nil {
				p.serverConns = tl.accepted()
			}
			countSpans()
			return errs
		},
	}, nil
}

// runPass sets a federation up, runs it and records what the end-to-end
// metrics need. It never returns an error: a failed run is a pass whose
// RunErr is set and whose missing rounds count as failed attempts.
func runPass(w workload, setup experiment.Setup, seed uint64, opts passOpts) *pass {
	// Passes of one process start from a collected heap handed back to the
	// system, so the garbage of one does not set the peak memory of the next.
	debug.FreeOSMemory()
	p := &pass{tr: newTracer()}
	start := time.Now()
	l, err := setUp(w, setup, seed, opts, p)
	p.SetupS = time.Since(start).Seconds()
	if err != nil {
		p.RunErr = err
		return p
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.RunStart = p.tr.now()
	h, err := l.run(func(rec fl.RoundRecord) {
		p.RoundAt = append(p.RoundAt, p.tr.now())
	})
	p.RunS = p.tr.now() - p.RunStart
	runtime.ReadMemStats(&after)
	p.Mallocs = after.Mallocs - before.Mallocs
	p.AllocBytes = after.TotalAlloc - before.TotalAlloc
	p.ClientErrs = l.finish(err == nil)
	p.RunErr = err
	if h != nil {
		p.Rounds = h.Rounds
		p.FinalHash = hashWeights(h.FinalWeights)
	}
	if err == nil && len(p.Rounds) != setup.Rounds {
		p.RunErr = errors.New("run returned too few rounds")
	}
	return p
}

// timeSetUp repeats the set-up work without running anything, for the
// setup_s samples a single pass cannot give.
func timeSetUp(w workload, setup experiment.Setup, seed uint64, outDir string) (float64, error) {
	p := &pass{tr: newTracer()}
	start := time.Now()
	l, err := setUp(w, setup, seed, passOpts{outDir: outDir}, p)
	secs := time.Since(start).Seconds()
	if err != nil {
		return 0, err
	}
	l.finish(false)
	return secs, nil
}

// hashWeights is FNV-64a over the little-endian float32 bits. It is the
// benchmark's own, not codec.Hash, so that ledgers of different commits
// stay comparable when the program's cache key changes.
func hashWeights(w []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range w {
		bits := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// attempts returns the client-rounds a pass attempted and how many of
// them failed: dropped clients, rounds never completed, and client
// goroutines that ended in an error.
func (p *pass) attempts(setup experiment.Setup) (attempted, failed int) {
	attempted = setup.Rounds * setup.PerRound
	for _, r := range p.Rounds {
		failed += len(r.Dropped)
	}
	if missing := setup.Rounds - len(p.Rounds); missing > 0 {
		failed += missing * setup.PerRound
	}
	failed += p.ClientErrs
	if failed > attempted {
		failed = attempted
	}
	return attempted, failed
}
