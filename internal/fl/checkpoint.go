package fl

import (
	"fmt"

	"fedguard/internal/codec"
	"fedguard/internal/rng"
)

// Checkpoint is the full resumable state of a federation frozen at a
// round boundary: everything a restarted server needs to continue the
// run and land on FinalWeights byte-identical to an uninterrupted one.
// The server RNG is captured after the round's sample and split, so the
// next round's draws continue the exact stream; client and decoder
// state carry the pieces that are NOT re-derivable from the seed (a
// client's private stream position, its trained CVAE decoder, the
// server's dedup cache). persist.SaveCheckpoint/LoadCheckpoint give the
// on-disk form.
//
// Ownership: Global and every decoder payload slice (DecoderState.Params,
// ClientState.Decoder) alias the live run's memory. That is safe because
// neither is ever written in place — ψ is replaced each round, and a
// client trains its decoder once — and it is why a snapshot costs
// nothing per decoder. A sink must not modify them or keep them past
// its return.
type Checkpoint struct {
	// Round is the last completed round the snapshot reflects.
	Round int
	// Seed and Strategy identify the run; Resume refuses mismatches.
	Seed     uint64
	Strategy string
	// Global is ψ after Round.
	Global []float32
	// ServerRNG is the server stream frozen at the round boundary.
	ServerRNG rng.State
	// Rounds is the history prefix through Round, Dropped, Decisions and
	// the wire-byte columns included, so a resumed run's record and
	// Table V are seamless.
	Rounds []RoundRecord
	// Decoders is the networked server's decoder-dedup cache: hashes
	// plus cached payloads, so a resumed server can answer hash-only
	// tokens. In-process checkpoints leave it empty: each client's
	// DecoderHash is its dedup entry, and hash-only entries that older
	// round files carry are ignored on resume.
	Decoders []DecoderState
	// Clients holds in-process client snapshots. Networked checkpoints
	// leave it empty: remote clients own their state and carry it across
	// redials themselves.
	Clients []ClientState
}

// DecoderState is one client's entry in the networked server's decoder
// dedup cache.
type DecoderState struct {
	ID int
	// Hash is codec.Hash of the decoder the client last delivered.
	Hash uint64
	// Params is the cached decoder payload, aliased from the server's
	// cache and never rewritten.
	Params []float32
}

// ClientState is the non-re-derivable state of one in-process client:
// the private RNG stream position and the trained CVAE decoder. The
// poisoned data view is deliberately absent — it is a pure function of
// the partition and recomputed on demand.
type ClientState struct {
	ID  int
	RNG rng.State
	// Decoder is the trained decoder payload (nil before the client's
	// first FedGuard participation), aliased from the client and never
	// rewritten; DecoderHash is codec.Hash of it (0 = no decoder), the
	// name the payload is persisted under.
	Decoder        []float32
	DecoderHash    uint64
	DecoderClasses []int
}

// CheckpointSink persists one snapshot and reports where it landed and
// how many bytes this call wrote (for the CheckpointWritten event): the
// round file plus any decoder payload not persisted before, so the
// figure falls to the round file's size once every client's decoder is
// on disk. The canonical sink is persist.SaveCheckpoint, wired in by
// package experiment; the indirection keeps fl free of the on-disk
// format.
type CheckpointSink func(*Checkpoint) (path string, bytes int64, err error)

// CaptureState snapshots everything a resumed run must restore to keep
// this client's stream bit-identical: the RNG position and the trained
// CVAE decoder (losing the decoder would force a retrain, advancing the
// RNG stream relative to the original run). The decoder is aliased, not
// copied: the client trains it once and never writes it in place.
func (c *Client) CaptureState() ClientState {
	return ClientState{
		ID:             c.ID,
		RNG:            c.rng.State(),
		Decoder:        c.decoder,
		DecoderHash:    c.decoderHash,
		DecoderClasses: append([]int(nil), c.decoderClasses...),
	}
}

// RestoreState overwrites the client's mutable state with a snapshot
// taken by CaptureState. The poisoned view is a function of the
// partition alone, so it stays.
func (c *Client) RestoreState(st ClientState) {
	c.rng.SetState(st.RNG)
	c.decoder = append([]float32(nil), st.Decoder...)
	c.decoderHash = 0
	if len(c.decoder) > 0 {
		c.decoderHash = codec.Hash(c.decoder)
	}
	c.decoderClasses = append([]int(nil), st.DecoderClasses...)
}

// CheckResume validates that a checkpoint belongs to this (federation,
// strategy) pair and lies inside the round range. Shared with the
// networked server, which performs the identical checks against its
// experiment config.
func CheckResume(cfg FederationConfig, strategyName string, ck *Checkpoint) error {
	switch {
	case ck == nil:
		return fmt.Errorf("fl: resume with nil checkpoint")
	case ck.Seed != cfg.Seed:
		return fmt.Errorf("fl: checkpoint seed %d, federation seed %d", ck.Seed, cfg.Seed)
	case ck.Strategy != strategyName:
		return fmt.Errorf("fl: checkpoint strategy %q, resuming with %q", ck.Strategy, strategyName)
	case ck.Round < 1 || ck.Round > cfg.Rounds:
		return fmt.Errorf("fl: checkpoint round %d outside 1..%d", ck.Round, cfg.Rounds)
	case len(ck.Rounds) != ck.Round:
		return fmt.Errorf("fl: checkpoint carries %d round records for round %d", len(ck.Rounds), ck.Round)
	}
	return nil
}
