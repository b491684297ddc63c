package fl

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"fedguard/internal/attack"
	"fedguard/internal/classifier"
	"fedguard/internal/codec"
	"fedguard/internal/dataset"
	"fedguard/internal/rng"
	"fedguard/internal/telemetry"
)

// FederationConfig describes a full federated experiment (paper §IV-A):
// N clients holding a Dirichlet(α) partition of the training set, m
// sampled per round for R rounds, a fraction of them malicious.
type FederationConfig struct {
	NumClients int     // N (paper: 100)
	PerRound   int     // m (paper: 50)
	Rounds     int     // R (paper: 50)
	Alpha      float64 // Dirichlet concentration (paper: 10)
	// ServerLR scales the global update: ψ ← ψ + lr·(agg − ψ).
	// 1.0 is the standard full step; the paper's Fig. 5 uses 0.3 to damp
	// occasional defense failures.
	ServerLR float64
	// MaliciousFraction of the N clients run Attack (0 disables).
	MaliciousFraction float64
	// Attack is the shared attack instance for all malicious clients
	// (sharing is what lets additive-noise attackers collude). nil means
	// benign. RunRounds tailors an attack.AGRTailored to its strategy.
	Attack attack.Attack
	// Client bundles the per-client model/training configuration.
	Client ClientConfig
	// CheckpointSink, when non-nil, receives a full resumable snapshot
	// after every CheckpointEvery-th round, before onRound fires — so a
	// crash anywhere after round k's snapshot resumes at k+1. A sink
	// error aborts the run: silently continuing would let the run outlive
	// its own durability guarantee.
	CheckpointSink CheckpointSink
	// CheckpointEvery is the snapshot cadence in rounds (<= 0 means every
	// round when a sink is set).
	CheckpointEvery int
	// TestSubset limits per-round evaluation to the first k test examples
	// (0 = the whole test set).
	TestSubset int
	// Seed derives every random stream in the run.
	Seed uint64
	// Telemetry, when non-nil, receives structured run events (each
	// round's RoundRecord among them) and, with tracing enabled, the
	// run's span tree. nil disables all instrumentation at the cost of a
	// nil check per call site.
	Telemetry *telemetry.T
}

// Validate checks the configuration for consistency.
func (c *FederationConfig) Validate() error {
	switch {
	case c.NumClients <= 0:
		return fmt.Errorf("fl: NumClients = %d", c.NumClients)
	case c.PerRound <= 0 || c.PerRound > c.NumClients:
		return fmt.Errorf("fl: PerRound = %d with %d clients", c.PerRound, c.NumClients)
	case c.Rounds <= 0:
		return fmt.Errorf("fl: Rounds = %d", c.Rounds)
	case c.Alpha <= 0:
		return fmt.Errorf("fl: Alpha = %v", c.Alpha)
	case c.ServerLR <= 0 || c.ServerLR > 1:
		return fmt.Errorf("fl: ServerLR = %v, want (0,1]", c.ServerLR)
	case c.MaliciousFraction < 0 || c.MaliciousFraction > 1:
		return fmt.Errorf("fl: MaliciousFraction = %v", c.MaliciousFraction)
	case c.MaliciousFraction > 0 && c.Attack == nil:
		return fmt.Errorf("fl: MaliciousFraction %v with nil Attack", c.MaliciousFraction)
	case c.Client.Arch == nil:
		return fmt.Errorf("fl: Client.Arch is nil")
	}
	return nil
}

// Federation wires clients, data and configuration into a runnable
// experiment. Build once, then Run with any Strategy; each Run is
// independent and deterministic in the seed.
type Federation struct {
	cfg   FederationConfig
	train *dataset.Dataset
	test  *dataset.Dataset

	// MaliciousIDs is the set of client indices selected to be malicious
	// (exposed for tests and reports).
	MaliciousIDs map[int]bool
}

// NewFederation validates cfg and prepares a federation over the given
// train/test datasets.
func NewFederation(train, test *dataset.Dataset, cfg FederationConfig) (*Federation, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Federation{cfg: cfg, train: train, test: test}
	f.MaliciousIDs = MaliciousPlacement(cfg)
	return f, nil
}

// MaliciousPlacement derives the set of malicious client IDs from the
// experiment seed. Placement is part of the experiment setup, not of a
// particular run, so it uses a dedicated stream — and the networked
// deployment recomputes the identical set.
func MaliciousPlacement(cfg FederationConfig) map[int]bool {
	placement := rng.New(rng.DeriveSeed(cfg.Seed, "malicious", 0))
	count := int(cfg.MaliciousFraction*float64(cfg.NumClients) + 0.5)
	ids := make(map[int]bool, count)
	for _, id := range placement.Sample(cfg.NumClients, count) {
		ids[id] = true
	}
	return ids
}

// Run executes R federated rounds under the given strategy and returns
// the full history. onRound, if non-nil, is invoked after every round
// with the fresh record (for live progress output).
func (f *Federation) Run(strategy Strategy, onRound func(RoundRecord)) (*History, error) {
	return f.run(strategy, onRound, nil)
}

// Resume continues a run from a checkpoint taken by a CheckpointSink:
// client streams, the server stream, ψ and the dedup state are restored
// and rounds continue at ck.Round+1. The remaining rounds — and the
// FinalWeights — are byte-identical to an uninterrupted run, because
// every piece of state that feeds a random draw or an aggregation is
// either re-derived from the seed or carried in the checkpoint.
func (f *Federation) Resume(strategy Strategy, ck *Checkpoint, onRound func(RoundRecord)) (*History, error) {
	if err := CheckResume(f.cfg, strategy.Name(), ck); err != nil {
		return nil, err
	}
	return f.run(strategy, onRound, ck)
}

func (f *Federation) run(strategy Strategy, onRound func(RoundRecord), resume *Checkpoint) (*History, error) {
	p, err := f.newPool(resume)
	if err != nil {
		return nil, err
	}
	// The in-process trace mirrors the networked one: run → round →
	// client.round → client.train/…, so cmd/fedtrace reads both the same way.
	runSpan := f.cfg.Telemetry.StartRoot("run", telemetry.L("strategy", strategy.Name()))
	return RunRounds(f.cfg, f.test, strategy, p, runSpan, resume, onRound)
}

// pool is the in-process Cohort: the federation's N clients, bounded by
// the run's classifier set, with the wire modeled rather than measured.
type pool struct {
	clients []*Client
	// workers is the run's classifier set: a client holds one of its
	// workers for its whole round, and RunRounds evaluates on it.
	workers *classifier.Set
	// decoderHashes tracks the decoder payload each client most recently
	// delivered, so wire-byte accounting charges a decoder only when it
	// would actually cross the network — the dedup semantics the
	// networked deployment implements for real.
	decoderHashes map[int]uint64
}

// newPool builds one run's clients from the seed-derived partition and
// streams, restoring their state from resume when one is given.
func (f *Federation) newPool(resume *Checkpoint) (*pool, error) {
	cfg := f.cfg
	parts := Partition(f.train, cfg)
	p := &pool{
		clients:       make([]*Client, cfg.NumClients),
		workers:       classifier.NewSet(cfg.Client.Arch),
		decoderHashes: make(map[int]uint64, cfg.NumClients),
	}
	for i := range p.clients {
		var att attack.Attack = attack.None{}
		if f.MaliciousIDs[i] {
			att = cfg.Attack
		}
		p.clients[i] = NewClient(i, f.train, parts[i], cfg.Client, att,
			rng.New(rng.DeriveSeed(cfg.Seed, "client", uint64(i))))
		p.clients[i].UseWorkers(p.workers)
	}
	if resume != nil {
		for _, st := range resume.Clients {
			if st.ID < 0 || st.ID >= len(p.clients) {
				return nil, fmt.Errorf("fl: checkpoint client %d outside 0..%d", st.ID, len(p.clients)-1)
			}
			p.clients[st.ID].RestoreState(st)
			if st.DecoderHash != 0 {
				p.decoderHashes[st.ID] = st.DecoderHash
			}
		}
	}
	return p, nil
}

// Train implements Cohort: every sampled client runs its round on its
// own goroutine, under its own "client.round" span, and waits there for a
// worker of the run's set — the one bound on how many train at once. Each
// finished update is submitted immediately so the strategy's audit
// overlaps the remaining clients' training. Local clients never drop.
func (p *pool) Train(round int, sampled []int, global []float32, needDecoders bool, submit func(int, Update) bool, roundSpan *telemetry.Span) ([]Update, []int, error) {
	out := make([]Update, len(sampled))
	var wg sync.WaitGroup
	for i, id := range sampled {
		wg.Add(1)
		go func(i, id int) {
			defer wg.Done()
			sp := roundSpan.Child("client.round", telemetry.L("client", strconv.Itoa(id)))
			out[i] = p.clients[id].RunRoundSpan(global, needDecoders, sp)
			sp.End()
			submit(i, out[i])
			// Nothing the round computed on dies here — the classifier
			// and, under FedGuard, the CVAE with its Adam are the
			// worker's — but last round's updates and the round's small
			// garbage do, and left to the pacer the heap grows to twice
			// everything live in it, the embedding program's data
			// included, before a cycle runs. Collecting as each client
			// finishes holds the peak near what is live: without this
			// call `fedguard-inproc` (seed 7, 2 vCPUs, three pairs at
			// equal passes) peaked at 104 MB against 84 MB with it. A
			// cycle costs ≈ 0.5 ms against ≥ 100 ms of training (the live
			// heap is pointer-free float slices).
			runtime.GC()
		}(i, id)
	}
	wg.Wait()
	return out, nil, nil
}

// Workers implements Cohort: the run's classifier set.
func (p *pool) Workers() *classifier.Set { return p.workers }

// WireBytes implements Cohort with the logical sizes under dedup
// semantics: a decoder costs bytes only when its content changed since
// the client's last delivery, which is exactly when the networked path
// resends it.
func (p *pool) WireBytes(updates []Update, broadcast int64) (up, down int64) {
	for _, u := range updates {
		down += int64(len(u.Weights)) * 4
		if len(u.Decoder) > 0 {
			h := codec.Hash(u.Decoder)
			if p.decoderHashes[u.ClientID] != h {
				p.decoderHashes[u.ClientID] = h
				down += int64(len(u.Decoder)) * 4
			}
		}
	}
	return broadcast, down
}

// Snapshot implements Cohort: every client in ID order. A client's
// DecoderHash is also its dedup entry — a decoder never changes once
// trained, and the round that trains it delivers it — so the checkpoint
// names each decoder once and newPool rebuilds decoderHashes from the
// clients.
func (p *pool) Snapshot(ck *Checkpoint) {
	ck.Clients = make([]ClientState, len(p.clients))
	for i, c := range p.clients {
		ck.Clients[i] = c.CaptureState()
	}
}

// Partition derives the federation's data partition from the experiment
// seed. Exposed so the networked deployment (package fednet) computes the
// identical split.
func Partition(train *dataset.Dataset, cfg FederationConfig) [][]int {
	return dataset.PartitionDirichlet(train, cfg.NumClients, cfg.Alpha,
		rng.New(rng.DeriveSeed(cfg.Seed, "partition", 0)))
}

// InitialGlobal derives ψ₀, the initial global parameter vector, from the
// experiment seed (Alg. 1 line 15).
func InitialGlobal(cfg FederationConfig) []float32 {
	return InitialGlobalFrom(cfg.Client.Arch, cfg.Seed)
}

// InitialGlobalFrom derives ψ₀ from an architecture factory and the
// experiment seed directly — the form remote clients use, which hold
// only the Setup parameters rather than a full FederationConfig. Both
// endpoints deriving the identical ψ₀ locally is what lets the
// compressed wire path delta-encode the very first broadcast against a
// base that never crossed the network.
func InitialGlobalFrom(arch classifier.Arch, seed uint64) []float32 {
	return arch(rng.New(rng.DeriveSeed(seed, "init", 0))).FlattenParams()
}

// ClientRNGSeed derives client id's private stream seed. Remote clients
// use this to reproduce the exact stream an in-process federation would
// give them.
func ClientRNGSeed(seed uint64, id int) uint64 {
	return rng.DeriveSeed(seed, "client", uint64(id))
}
