package fl

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"fedguard/internal/classifier"
	"fedguard/internal/dataset"
	"fedguard/internal/rng"
	"fedguard/internal/telemetry"
)

// fakeCohort is a Cohort with no clients behind it: every sampled ID not
// listed in drop "delivers" the current global, so RunRounds can be
// driven through rounds — and through failures no real transport
// produces on demand — without training anything.
type fakeCohort struct {
	failAt  int   // Train fails in this round (0 = never)
	drop    []int // client IDs that never deliver
	sampled [][]int
	workers *classifier.Set
}

var errFakeTrain = errors.New("fake cohort: train failed")

func (c *fakeCohort) Train(round int, sampled []int, global []float32, needDecoders bool, stream RoundStream, roundSpan *telemetry.Span) ([]Update, []int, error) {
	c.sampled = append(c.sampled, sampled)
	if round == c.failAt {
		return nil, nil, errFakeTrain
	}
	var updates []Update
	var dropped []int
	for _, id := range sampled {
		if slices.Contains(c.drop, id) {
			dropped = append(dropped, id)
			continue
		}
		updates = append(updates, Update{ClientID: id, Weights: append([]float32(nil), global...), NumSamples: 1})
	}
	return updates, dropped, nil
}

func (c *fakeCohort) WireBytes(updates []Update, broadcast int64) (up, down int64) {
	return 7, 11
}

func (c *fakeCohort) Snapshot(ck *Checkpoint) {
	ck.Decoders = []DecoderState{{ID: 3, Hash: 9}}
}

func (c *fakeCohort) Workers() *classifier.Set {
	if c.workers == nil {
		c.workers = classifier.NewSet(tinyFederationConfig().Client.Arch)
	}
	return c.workers
}

// countingStreams is a StreamingStrategy whose streams only count how
// they were closed.
type countingStreams struct {
	fakeStrategy
	streams []*countingStream
}

type countingStream struct{ finalized, aborted int }

func (s *countingStreams) BeginRound(ctx *RoundContext, m int) RoundStream {
	st := &countingStream{}
	s.streams = append(s.streams, st)
	return st
}

func (st *countingStream) Submit(int, Update) {}
func (st *countingStream) Abort()             { st.aborted++ }
func (st *countingStream) Overlap() (time.Duration, int) {
	return 0, 0
}
func (st *countingStream) Finalize(ctx *RoundContext) ([]float32, error) {
	st.finalized++
	return append([]float32(nil), ctx.Global...), nil
}

func engineTestSet() *dataset.Dataset {
	return dataset.Generate(30, dataset.DefaultGenOptions(), rng.New(77))
}

// TestEngineTrainErrorAbortsStream: when the cohort fails a round, the
// round's open stream is aborted exactly once (its workers must not
// leak), earlier rounds' streams were finalized, and the caller gets the
// cohort's error with the completed rounds.
func TestEngineTrainErrorAbortsStream(t *testing.T) {
	cfg := tinyFederationConfig()
	cfg.Rounds = 3
	cfg.StreamAudit = true
	strat := &countingStreams{}
	onRound := 0
	h, err := RunRounds(cfg, engineTestSet(), strat, &fakeCohort{failAt: 2}, nil, nil,
		func(RoundRecord) { onRound++ })
	if !errors.Is(err, errFakeTrain) {
		t.Fatalf("error %v, want the cohort's", err)
	}
	if h == nil || len(h.Rounds) != 1 || onRound != 1 {
		t.Fatalf("history %+v, onRound %d: want exactly the one completed round", h, onRound)
	}
	if len(strat.streams) != 2 {
		t.Fatalf("%d streams opened, want 2", len(strat.streams))
	}
	if s := strat.streams[0]; s.finalized != 1 || s.aborted != 0 {
		t.Fatalf("round 1 stream: %+v", *s)
	}
	if s := strat.streams[1]; s.finalized != 0 || s.aborted != 1 {
		t.Fatalf("round 2 stream: %+v, want aborted once", *s)
	}
}

// TestEngineRecordsCohortAnswers: what the cohort reports is what the
// record and the checkpoint carry — dropped clients, the wire-byte pair,
// the transport-owned checkpoint fields — the sampler chooses who is
// asked, and a sink error stops the run before onRound.
func TestEngineRecordsCohortAnswers(t *testing.T) {
	cfg := tinyFederationConfig()
	cfg.Sampler = fixedSampler{ids: []int{5, 1, 4, 2}}
	var got *Checkpoint
	cfg.CheckpointSink = func(ck *Checkpoint) (string, int64, error) {
		got = ck
		return "", 0, errors.New("disk on fire")
	}
	cohort := &fakeCohort{drop: []int{4}}
	onRound := 0
	h, err := RunRounds(cfg, engineTestSet(), &fakeStrategy{}, cohort, nil, nil,
		func(RoundRecord) { onRound++ })
	if err == nil || onRound != 0 {
		t.Fatalf("sink error: err %v, onRound fired %d times", err, onRound)
	}
	if len(h.Rounds) != 1 {
		t.Fatalf("%d rounds in the partial history", len(h.Rounds))
	}
	rec := h.Rounds[0]
	if !reflect.DeepEqual(cohort.sampled, [][]int{{5, 1, 4, 2}}) || !reflect.DeepEqual(rec.Sampled, []int{5, 1, 4, 2}) {
		t.Fatalf("sampler ignored: cohort asked %v, record %v", cohort.sampled, rec.Sampled)
	}
	if !reflect.DeepEqual(rec.Dropped, []int{4}) {
		t.Fatalf("Dropped = %v, want [4]", rec.Dropped)
	}
	if rec.WireUploadBytes != 7 || rec.WireDownloadBytes != 11 {
		t.Fatalf("wire bytes %d/%d, want the cohort's 7/11", rec.WireUploadBytes, rec.WireDownloadBytes)
	}
	params := int64(len(InitialGlobal(cfg)))
	if rec.UploadBytes != 4*params*4 || rec.DownloadBytes != 3*params*4 {
		t.Fatalf("logical bytes %d/%d with %d params, 4 sampled, 3 delivered", rec.UploadBytes, rec.DownloadBytes, params)
	}
	if got == nil || got.Round != 1 || !reflect.DeepEqual(got.Decoders, []DecoderState{{ID: 3, Hash: 9}}) {
		t.Fatalf("checkpoint %+v lacks the cohort's snapshot", got)
	}
}
