// Package fl implements the federated-learning core of the paper's
// Algorithm 1: clients that train a local classifier (and, for FedGuard,
// a local CVAE) on private partitions, and one server loop (RunRounds)
// that samples m of N clients per round, hands their submissions to a
// pluggable aggregation Strategy, applies an optional server learning
// rate (paper Fig. 5) and records per-round accuracy/time/byte
// telemetry. The loop reaches clients through a Cohort: Federation's
// bounded in-process worker pool here, TCP connections in package fednet.
package fl

import (
	"time"

	"fedguard/internal/rng"
	"fedguard/internal/telemetry"
)

// ReportKrumSelected is the one typed key of the RoundContext.Report
// map: the client ID Krum chose as the round's representative update.
// A defense's keep-or-drop decisions are not diagnostics: see Decide.
const ReportKrumSelected = "krum_selected"

// Decision is a defense's verdict on one delivered update (Alg. 1 lines
// 5–7): the client's score on the round's validation signal
// (synthetic-set accuracy for FedGuard, reconstruction error for
// Spectral), whether the update entered the aggregate, and the ground
// truth to audit the verdict against.
type Decision struct {
	ClientID int     `json:"client_id"`
	Score    float64 `json:"score"`
	Kept     bool    `json:"kept"`
	// Malicious is stamped by the round engine from the experiment's
	// placement; a strategy never sees it.
	Malicious bool `json:"malicious"`
}

// Update is one client's per-round submission: classifier parameters in
// the flat wire format, the FedAvg weight, and (for FedGuard) the
// client's CVAE decoder payload.
type Update struct {
	ClientID   int
	Weights    []float32
	NumSamples int // the partition the server drew, never a client's claim
	// Decoder is the flat CVAE decoder parameter vector, or nil when the
	// active strategy does not request decoders.
	Decoder []float32
	// DecoderClasses lists the class labels present in the data the
	// client's CVAE was trained on (sorted ascending). The paper's §VI-B
	// proposes sharing this so the server can condition each decoder only
	// on classes it has actually seen — the mitigation for highly
	// heterogeneous clients. nil means "assume all classes".
	DecoderClasses []int
}

// RoundContext carries everything a Strategy may consult while
// aggregating one round.
type RoundContext struct {
	// Round is the 1-based federated round index.
	Round int
	// Global is the current global parameter vector (read-only).
	Global []float32
	// Updates are the submissions of this round's sampled clients.
	Updates []Update
	// RNG is the server-side randomness for this round (used e.g. for
	// FedGuard's latent and label sampling).
	RNG *rng.RNG
	// Report lets strategies expose per-round diagnostics (e.g. which
	// update Krum selected); RunRounds copies it into the RoundRecord.
	Report map[string]float64
	// Threshold and Decisions are what Decide recorded: the bar the
	// round's scores were held to and one Decision per update, in Updates
	// order. A strategy that audits nothing leaves them zero.
	Threshold float64
	Decisions []Decision
	// Span is the round's server.aggregate span when the run is traced,
	// nil otherwise. A strategy times a sub-phase as
	// ctx.Span.Child(name) … End(); on a nil Span both are free.
	Span *telemetry.Span
}

// Decide records the round's defense decision (Alg. 1 lines 6–7) and
// returns the surviving updates: scores[i] is ctx.Updates[i]'s score,
// threshold the bar they are held to, and keep says which side of it
// survives. Calling it again replaces the round's decision.
func (ctx *RoundContext) Decide(threshold float64, scores []float64, keep func(score float64) bool) []Update {
	ctx.Threshold = threshold
	ctx.Decisions = make([]Decision, len(ctx.Updates))
	var kept []Update
	for i, u := range ctx.Updates {
		d := Decision{ClientID: u.ClientID, Score: scores[i], Kept: keep(scores[i])}
		if d.Kept {
			kept = append(kept, u)
		}
		ctx.Decisions[i] = d
	}
	return kept
}

// StreamingStrategy is an optional Strategy extension. A strategy that
// can overlap per-update audit work with the round's upload phase
// implements BeginRound; servers that know the participant count up
// front call it when the round opens and feed updates into the returned
// stream as they arrive, so the strategy's compute hides in the network
// shadow instead of running serially after the barrier.
//
// The contract is strict determinism: Finalize must return exactly the
// bytes Aggregate would have returned for the same RoundContext, and the
// same error. To make that possible BeginRound must not advance ctx.RNG —
// it draws on a private clone — so that Aggregate on the same context
// (after an Abort, or inside Finalize when the delivered updates are not
// the submitted ones) draws what the stream drew.
type StreamingStrategy interface {
	Strategy
	// BeginRound opens a streaming round expecting m updates. ctx carries
	// the round's Global and RNG but no Updates yet. A nil return
	// means only that there is nothing to stream — an empty round, or a
	// configuration Aggregate will report as an error; the caller uses
	// Aggregate.
	BeginRound(ctx *RoundContext, m int) RoundStream
}

// RoundStream ingests one round's updates as they arrive. Submit may be
// called concurrently from receiver goroutines; Finalize and Abort must
// be called exactly once (one of the two), after which the stream is
// dead.
type RoundStream interface {
	// Submit hands the stream the update destined for ctx.Updates[slot].
	// Safe for concurrent use.
	Submit(slot int, u Update)
	// Finalize blocks until in-flight work drains and returns the round's
	// aggregate. ctx must hold the assembled Updates in slot order; if
	// they are not what was submitted (drop-outs, re-ordered slots, a slot
	// submitted twice) the stream answers with Aggregate on ctx, so the
	// result is identical either way. An invalid update is an error, the
	// same one whatever the arrival order.
	Finalize(ctx *RoundContext) ([]float32, error)
	// Abort discards the stream (round failed); it blocks until workers
	// exit.
	Abort()
	// Overlap reports how much audit compute the stream has completed so
	// far and across how many jobs. Read it just before Finalize to
	// measure the work that overlapped the upload phase.
	Overlap() (busy time.Duration, jobs int)
}

// Strategy turns a round's submissions into the next global parameter
// vector. Implementations: FedAvg, GeoMed, Krum, Spectral (package
// aggregate / defense) and FedGuard (package defense).
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Aggregate returns the aggregated parameter vector. It must not
	// modify ctx.Updates or ctx.Global.
	Aggregate(ctx *RoundContext) ([]float32, error)
	// NeedsDecoders reports whether clients must attach CVAE decoder
	// payloads to their updates (true only for FedGuard).
	NeedsDecoders() bool
}
