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
// client's private stream position, its trained CVAE decoder, the
// server's dedup cache). persist.SaveCheckpoint/LoadCheckpoint give the
// on-disk form.
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
	// Rounds is the history prefix through Round (including Dropped and
	// the wire-byte columns, so a resumed run's Table V is seamless).
	Rounds []RoundRecord
	// Decoders is the per-client decoder-dedup state: content hashes
	// in-process, hashes plus cached payloads for the networked server
	// (which must answer hash-only tokens from restored state).
	Decoders []DecoderState
	// Clients holds in-process client snapshots. Networked checkpoints
	// leave it empty: remote clients own their state and carry it across
	// redials themselves.
	Clients []ClientState
}

// DecoderState is one client's entry in the decoder dedup cache.
type DecoderState struct {
	ID   int
	Hash uint64
	// Params is the cached decoder payload; empty for in-process
	// checkpoints, where the client snapshot already carries it.
	Params []float32
}

// ClientState is the non-re-derivable state of one in-process client:
// the private RNG stream position and the trained CVAE decoder. The
// poisoned data view is deliberately absent — it is a pure function of
// the partition and recomputed on demand.
type ClientState struct {
	ID             int
	RNG            rng.State
	Visible        int
	SinceCVAETrain int
	Decoder        []float32
	DecoderClasses []int
}

// CheckpointSink persists one snapshot and reports where it landed and
// how many bytes it occupies (for the CheckpointWritten event). The
// canonical sink is persist.SaveCheckpoint, wired in by package
// experiment; the indirection keeps fl free of the on-disk format.
type CheckpointSink func(*Checkpoint) (path string, bytes int64, err error)

// CaptureState snapshots everything a resumed run must restore to keep
// this client's stream bit-identical: the RNG position, the streaming
// counters, and the trained CVAE decoder (losing the decoder would
// force a retrain, advancing the RNG stream relative to the original
// run).
func (c *Client) CaptureState() ClientState {
	return ClientState{
		ID:             c.ID,
		RNG:            c.rng.State(),
		Visible:        c.visible,
		SinceCVAETrain: c.sinceCVAETrain,
		Decoder:        append([]float32(nil), c.decoder...),
		DecoderClasses: append([]int(nil), c.decoderClasses...),
	}
}

// RestoreState overwrites the client's mutable state with a snapshot
// taken by CaptureState. The poisoned view is invalidated and rebuilt
// deterministically on next use.
func (c *Client) RestoreState(st ClientState) {
	c.rng.SetState(st.RNG)
	c.visible = st.Visible
	c.sinceCVAETrain = st.SinceCVAETrain
	c.decoder = append([]float32(nil), st.Decoder...)
	c.decoderClasses = append([]int(nil), st.DecoderClasses...)
	c.viewReady = false
	c.viewDS = nil
	c.viewIndices = nil
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
