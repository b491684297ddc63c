package fl

import (
	"fmt"

	"fedguard/internal/rng"
)

// Checkpoint is the full resumable state of a federation frozen at a
// round boundary: everything a restarted server needs to continue the
// run and land on FinalWeights byte-identical to an uninterrupted one.
// The server RNG is captured after the round's sample and split, so the
// next round's draws continue the exact stream; client and decoder
// state carry the pieces that are NOT re-derivable from the seed (a
// client's private stream position and the CVAE decoders clients have
// delivered). persist.SaveCheckpoint/LoadCheckpoint give the on-disk
// form.
//
// Ownership: Global and every DecoderState.Params alias the live run's
// memory. That is safe because neither is ever written in place — ψ is
// replaced each round, and a client trains its decoder once — and it is
// why a snapshot costs nothing per decoder. A sink must not modify them
// or keep them past its return.
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
	// Decoders is the one place a checkpoint holds a decoder: one entry
	// per client that has one, in ID order. In process it is each
	// client's trained decoder, restored into the client (which then
	// skips retraining) and into the pool's dedup table. Over the network
	// it is the server's dedup cache — the payload each client last
	// delivered — so a resumed server can answer hash-only tokens; the
	// remote client keeps its own copy.
	Decoders []DecoderState
	// Clients holds in-process client streams. Networked checkpoints
	// leave it empty: remote clients own their state and carry it across
	// redials themselves.
	Clients []ClientState
}

// DecoderState is one client's decoder: its payload and the payload's
// content hash, the name it is persisted and deduplicated under.
type DecoderState struct {
	ID int
	// Hash is codec.Hash(Params).
	Hash uint64
	// Params is the decoder payload, aliased from the client or the
	// server's cache and never rewritten.
	Params []float32
}

// ClientState is the one non-re-derivable piece of an in-process client
// besides its decoder: the private RNG stream position. The poisoned
// data views and the classes a decoder was trained on are deliberately
// absent — they are pure functions of the partition and the attack, and
// recomputed on demand.
type ClientState struct {
	ID  int
	RNG rng.State
}

// CheckpointSink persists one snapshot and reports where it landed and
// how many bytes this call wrote (for the CheckpointWritten event): the
// round file plus any decoder payload not persisted before, so the
// figure falls to the round file's size once every client's decoder is
// on disk. The canonical sink is persist.SaveCheckpoint, wired in by
// package experiment; the indirection keeps fl free of the on-disk
// format.
type CheckpointSink func(*Checkpoint) (path string, bytes int64, err error)

// restoreDecoder gives the client back a decoder it trained before a
// checkpoint, so it does not train (and draw from its stream) again. The
// payload is aliased, as Snapshot aliases it: nothing writes a decoder
// in place. The classes it was trained on are those of the CVAE view,
// exactly as at training time.
func (c *Client) restoreDecoder(d DecoderState) {
	c.decoder = d.Params
	c.decoderHash = d.Hash
	ds, indices := c.cvaeView()
	c.decoderClasses = classesOf(ds, indices, c.cfg.CVAE.Classes)
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
