package fl

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"fedguard/internal/attack"
	"fedguard/internal/classifier"
	"fedguard/internal/dataset"
	"fedguard/internal/rng"
	"fedguard/internal/telemetry"
	"fedguard/internal/tensor"
)

// Cohort is what differs between the deployments of Algorithm 1: how a
// round's sampled clients are reached, what that cost on the wire, and
// which non-re-derivable state a checkpoint must carry for them. The
// in-process Federation (a goroutine pool over local clients) and
// fednet.Server (TCP connections to remote ones) are the two
// implementations; RunRounds is the one loop over either.
type Cohort interface {
	// Train hands global to the sampled clients and collects their
	// updates. A transport that tolerates failures returns the responsive
	// updates compacted in sampled order plus the IDs it dropped, so
	// callers identify an update by its ClientID, never by its slot. A
	// non-nil stream receives each update at its sampled slot as it
	// arrives. roundSpan (nil when untraced) parents the per-client spans.
	// Errors name their own round and abort the run.
	Train(round int, sampled []int, global []float32, needDecoders bool,
		stream RoundStream, roundSpan *telemetry.Span) (updates []Update, dropped []int, err error)
	// WireBytes returns what the round just trained moved on the wire,
	// from the server's side: up is the broadcast, down the updates.
	// broadcast is the round's logical upload (Table V: 4 bytes per
	// parameter per sampled client), for transports that model the wire
	// rather than measure it.
	WireBytes(updates []Update, broadcast int64) (up, down int64)
	// Snapshot fills the transport-owned fields of a checkpoint: Decoders,
	// and Clients when client state lives in this process.
	Snapshot(ck *Checkpoint)
	// Workers is the classifier set of the cohort's process — the
	// in-process pool's, or the one a networked server shares with any
	// clients beside it. RunRounds evaluates ψ on it.
	Workers() *classifier.Set
}

// RunRounds is the server loop of Algorithm 1: R rounds of sample →
// train → aggregate → ψ-update → evaluate over the given cohort,
// recording history, telemetry and checkpoints. ψ is evaluated on every
// worker of the cohort's classifier set at once; between the barrier and
// the next broadcast nobody else is borrowing them. runSpan is the root of
// the run's trace (nil when untraced); the caller opens it, because a
// networked cohort parents spans onto it before the first round, and
// RunRounds ends it. A non-nil resume continues after resume.Round; the
// caller has validated it with CheckResume and restored the cohort's own
// state from it. On error the returned history holds the rounds
// completed so far, and every span RunRounds opened is ended, so a
// failed traced run exports no span without its parent. Every return
// closes the event stream with RunCompleted, a failed run's carrying its
// error, so a reader tells a failed run from a truncated log.
func RunRounds(cfg FederationConfig, test *dataset.Dataset, strategy Strategy, cohort Cohort,
	runSpan *telemetry.Span, resume *Checkpoint, onRound func(RoundRecord)) (_ *History, err error) {
	// All streams are derived from the experiment seed by domain tag, so
	// every deployment — and a remote client on its own — reconstructs the
	// identical stream and produces bit-identical results.
	malicious := MaliciousPlacement(cfg)
	serverRNG := rng.New(rng.DeriveSeed(cfg.Seed, "server", 0))
	// ψ₀ ← init() (Alg. 1 line 15).
	global := InitialGlobal(cfg)
	testIdx := dataset.Range(test.Len())
	if cfg.TestSubset > 0 && cfg.TestSubset < len(testIdx) {
		testIdx = testIdx[:cfg.TestSubset]
	}
	sampler := cfg.Sampler
	if sampler == nil {
		sampler = UniformSampler{}
	}
	needDecoders := strategy.NeedsDecoders()
	history := &History{Strategy: strategy.Name()}

	tel := cfg.Telemetry
	attackName := ""
	if cfg.Attack != nil {
		attackName = cfg.Attack.Name()
	}
	tel.Emit(telemetry.RunStarted{
		Strategy:          strategy.Name(),
		NumClients:        cfg.NumClients,
		PerRound:          cfg.PerRound,
		Rounds:            cfg.Rounds,
		Seed:              cfg.Seed,
		Attack:            attackName,
		MaliciousFraction: cfg.MaliciousFraction,
	})
	var roundSpan, aggSpan *telemetry.Span
	runStart := time.Now()
	defer func() {
		// End is idempotent: on success these have ended already.
		aggSpan.End()
		roundSpan.End()
		runSpan.End()
		done := telemetry.RunCompleted{
			Rounds:        len(history.Rounds),
			FinalAccuracy: history.FinalAccuracy(),
			TotalSeconds:  time.Since(runStart).Seconds(),
		}
		if err != nil {
			done.Error = err.Error()
		}
		tel.Emit(done)
	}()

	startRound := 1
	if resume != nil {
		if len(resume.Global) != len(global) {
			return nil, fmt.Errorf("fl: checkpoint holds %d parameters, architecture has %d",
				len(resume.Global), len(global))
		}
		global = append([]float32(nil), resume.Global...)
		serverRNG.SetState(resume.ServerRNG)
		history.Rounds = append(history.Rounds, resume.Rounds...)
		startRound = resume.Round + 1
		tel.Emit(telemetry.RunResumed{Round: resume.Round, Strategy: strategy.Name()})
	}
	cohortAttack, _ := cfg.Attack.(attack.CohortAware)
	every := cfg.CheckpointEvery
	if every <= 0 {
		every = 1
	}

	for round := startRound; round <= cfg.Rounds; round++ {
		trainStart := time.Now()
		roundSpan = runSpan.Child("round", telemetry.L("round", strconv.Itoa(round)))

		// J ← sample(range(1,N), m) (Alg. 1 line 17).
		sampled := sampler.SampleClients(history.Rounds, cfg.NumClients, cfg.PerRound, serverRNG)
		maliciousSampled := 0
		for _, id := range sampled {
			if malicious[id] {
				maliciousSampled++
			}
		}
		// The round RNG is split off before training so a streaming
		// strategy can pre-draw its plan; nothing draws from serverRNG in
		// between, so the child stream is identical to a post-barrier split.
		ctx := &RoundContext{
			Round:  round,
			Global: global,
			RNG:    serverRNG.Split(),
			Report: map[string]float64{},
		}
		// A cohort-aware attack rewrites the malicious drafts after the
		// round barrier, so updates streamed as they land would be
		// pre-rewrite; rounds with such a cohort fall back to the batch
		// audit path (benign rounds still stream).
		rewrite := cohortAttack != nil && maliciousSampled > 0
		var stream RoundStream
		if cfg.StreamAudit && !rewrite {
			if ss, ok := strategy.(StreamingStrategy); ok {
				stream = ss.BeginRound(ctx, len(sampled))
			}
		}
		updates, dropped, err := cohort.Train(round, sampled, global, needDecoders, stream, roundSpan)
		if err != nil {
			if stream != nil {
				stream.Abort()
			}
			return history, err
		}
		if rewrite {
			applyCohortAttack(cohortAttack, updates, malicious, cfg.Seed, round)
		}
		trainSecs := time.Since(trainStart).Seconds()

		aggStart := time.Now()
		aggSpan = roundSpan.Child("server.aggregate",
			telemetry.L("strategy", strategy.Name()),
			telemetry.L("workers", strconv.Itoa(tensor.Workers())))
		ctx.Updates = updates
		ctx.Span = aggSpan
		var agg []float32
		if stream != nil {
			// A zero-length span under the round carries how much audit
			// compute overlapped the upload phase.
			busy, jobs := stream.Overlap()
			sp := roundSpan.Child("server.audit_stream")
			sp.SetInt("overlap_us", busy.Microseconds())
			sp.SetInt("jobs", int64(jobs))
			sp.End()
			agg, err = stream.Finalize(ctx)
		} else {
			agg, err = strategy.Aggregate(ctx)
		}
		if err != nil {
			return history, fmt.Errorf("fl: round %d aggregation: %w", round, err)
		}
		if len(agg) != len(global) {
			return history, fmt.Errorf("fl: round %d: strategy returned %d parameters, want %d",
				round, len(agg), len(global))
		}
		// ψ ← ψ + lr·(agg − ψ): lr = 1 reduces to plain replacement. Every
		// round gets a fresh vector because the previous one may still be
		// referenced: networked connections keep it as their delta base,
		// and checkpoints and the history hold it without copying.
		next := make([]float32, len(global))
		tensor.LerpInto(next, global, agg, float32(cfg.ServerLR))
		global = next
		aggSpan.End()
		aggSecs := time.Since(aggStart).Seconds()
		// The strategy scored and filtered; the ground truth is the
		// engine's to add, so no strategy ever sees it.
		for i := range ctx.Decisions {
			ctx.Decisions[i].Malicious = malicious[ctx.Decisions[i].ClientID]
		}

		// Byte accounting per Table V: uploads are the global broadcast to
		// the m sampled clients; downloads are their returned updates plus
		// any decoder payloads, every payload charged in full at 4 bytes
		// per parameter. The wire columns are the cohort's: what the round
		// actually (or, in-process, would have) put on the sockets.
		up := int64(cfg.PerRound) * int64(len(global)) * 4
		var down int64
		for _, u := range updates {
			down += int64(len(u.Weights)+len(u.Decoder)) * 4
		}
		wireUp, wireDown := cohort.WireBytes(updates, up)
		rec := RoundRecord{
			Round:             round,
			TrainSeconds:      trainSecs,
			AggregateSeconds:  aggSecs,
			UploadBytes:       up,
			DownloadBytes:     down,
			WireUploadBytes:   wireUp,
			WireDownloadBytes: wireDown,
			Sampled:           sampled,
			MaliciousSampled:  maliciousSampled,
			Dropped:           dropped,
			Threshold:         ctx.Threshold,
			Decisions:         ctx.Decisions,
			Report:            ctx.Report,
		}

		evalStart := time.Now()
		evalSpan := roundSpan.Child("server.eval")
		rec.TestAccuracy, err = cohort.Workers().Evaluate(global, test, testIdx)
		evalSpan.End()
		if err != nil {
			return history, err
		}
		rec.EvalSeconds = time.Since(evalStart).Seconds()
		rec.Seconds = rec.TrainSeconds + rec.AggregateSeconds + rec.EvalSeconds

		roundSpan.SetInt("sampled", int64(len(sampled)))
		roundSpan.SetInt("dropped", int64(len(dropped)))
		roundSpan.End()
		tel.Emit(rec)
		history.Rounds = append(history.Rounds, rec)
		// Snapshot BEFORE onRound: a crash inside the callback (or any
		// time after it) then resumes at round+1, never replaying a round
		// the caller already observed.
		if cfg.CheckpointSink != nil && round%every == 0 {
			ckStart := time.Now()
			ck := &Checkpoint{
				Round:     round,
				Seed:      cfg.Seed,
				Strategy:  strategy.Name(),
				Global:    global,
				ServerRNG: serverRNG.State(),
				Rounds:    history.Rounds,
			}
			cohort.Snapshot(ck)
			path, n, err := cfg.CheckpointSink(ck)
			if err != nil {
				return history, fmt.Errorf("fl: round %d checkpoint: %w", round, err)
			}
			tel.Emit(telemetry.CheckpointWritten{Round: round, Path: path, Bytes: n,
				Seconds: time.Since(ckStart).Seconds()})
		}
		if onRound != nil {
			onRound(rec)
		}
	}
	history.FinalWeights = global
	return history, nil
}

// applyCohortAttack hands the round's malicious drafts to a
// CohortAware attack for a joint rewrite: the threat model's colluders
// exchanging their locally trained updates before upload. Drafts are
// found by ClientID and ordered by ascending ID, and the cohort RNG is
// derived from (seed, round), so the rewrite is deterministic for a
// given set of delivered updates — including across a checkpoint resume
// — regardless of arrival order, transport, or dropped clients.
func applyCohortAttack(ca attack.CohortAware, updates []Update, malicious map[int]bool, seed uint64, round int) {
	var slots []int
	for i, u := range updates {
		if malicious[u.ClientID] {
			slots = append(slots, i)
		}
	}
	sort.Slice(slots, func(a, b int) bool {
		return updates[slots[a]].ClientID < updates[slots[b]].ClientID
	})
	drafts := make([][]float32, len(slots))
	ids := make([]int, len(slots))
	for k, i := range slots {
		drafts[k] = updates[i].Weights
		ids[k] = updates[i].ClientID
	}
	ca.PoisonCohort(drafts, ids, rng.New(rng.DeriveSeed(seed, "cohort", uint64(round))))
}
