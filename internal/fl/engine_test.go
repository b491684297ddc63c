package fl

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"fedguard/internal/classifier"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/rng"
	"fedguard/internal/telemetry"
)

// fakeCohort is a Cohort with no clients behind it: every sampled ID not
// listed in drop "delivers" the current global, submitted at its slot,
// so RunRounds can be driven through rounds — and through failures no
// real transport produces on demand — without training anything.
type fakeCohort struct {
	failAt  int   // Train fails in this round (0 = never)
	drop    []int // client IDs that never deliver
	nan     []int // client IDs whose update carries a NaN
	sampled [][]int
	refused []int // client IDs whose update submit said it refused
	workers *classifier.Set
}

var errFakeTrain = errors.New("fake cohort: train failed")

func (c *fakeCohort) Train(round int, sampled []int, global []float32, needDecoders bool, submit func(int, Update) bool, roundSpan *telemetry.Span) ([]Update, []int, error) {
	c.sampled = append(c.sampled, sampled)
	if round == c.failAt {
		return nil, nil, errFakeTrain
	}
	var updates []Update
	var dropped []int
	for slot, id := range sampled {
		if slices.Contains(c.drop, id) {
			dropped = append(dropped, id)
			continue
		}
		u := Update{ClientID: id, Weights: append([]float32(nil), global...), NumSamples: 1}
		if slices.Contains(c.nan, id) {
			u.Weights[len(u.Weights)/2] = float32(math.NaN())
		}
		if !submit(slot, u) {
			c.refused = append(c.refused, id)
		}
		updates = append(updates, u)
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

type countingStream struct {
	finalized, aborted int
	slots              []int // what was submitted
}

func (s *countingStreams) BeginRound(ctx *RoundContext, m int) RoundStream {
	st := &countingStream{}
	s.streams = append(s.streams, st)
	return st
}

func (st *countingStream) Submit(slot int, _ Update) { st.slots = append(st.slots, slot) }
func (st *countingStream) Abort()                    { st.aborted++ }
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
// the transport-owned checkpoint fields — the seed's server stream
// chooses who is asked (Alg. 1 line 17), and a sink error stops the run
// before onRound.
func TestEngineRecordsCohortAnswers(t *testing.T) {
	cfg := tinyFederationConfig()
	cohortOf1 := rng.New(rng.DeriveSeed(cfg.Seed, "server", 0)).Sample(cfg.NumClients, cfg.PerRound)
	var got *Checkpoint
	cfg.CheckpointSink = func(ck *Checkpoint) (string, int64, error) {
		got = ck
		return "", 0, errors.New("disk on fire")
	}
	cohort := &fakeCohort{drop: []int{cohortOf1[2]}}
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
	if !reflect.DeepEqual(cohort.sampled, [][]int{cohortOf1}) || !reflect.DeepEqual(rec.Sampled, cohortOf1) {
		t.Fatalf("cohort asked %v, record %v; the seed draws %v", cohort.sampled, rec.Sampled, cohortOf1)
	}
	if !reflect.DeepEqual(rec.Dropped, cohortOf1[2:3]) {
		t.Fatalf("Dropped = %v, want %v", rec.Dropped, cohortOf1[2:3])
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

// TestAdmissible: an update is admitted exactly when every float of its
// weights and its decoder is finite — extremes, subnormals and −0
// included.
func TestAdmissible(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	quietNaN := math.Float32frombits(0xffc00001)
	for _, tc := range []struct {
		name string
		u    Update
		want bool
	}{
		{"empty", Update{}, true},
		{"finite", Update{Weights: []float32{0, float32(math.Copysign(0, -1)), math.MaxFloat32, -math.MaxFloat32,
			math.SmallestNonzeroFloat32}, Decoder: []float32{1, -1}}, true},
		{"NaN weight", Update{Weights: []float32{1, nan, 2}}, false},
		{"+Inf weight", Update{Weights: []float32{inf}}, false},
		{"-Inf weight", Update{Weights: []float32{1, -inf}}, false},
		{"NaN decoder", Update{Weights: []float32{1}, Decoder: []float32{2, quietNaN}}, false},
		{"+Inf decoder", Update{Weights: []float32{1}, Decoder: []float32{inf}}, false},
	} {
		if got := admissible(tc.u); got != tc.want {
			t.Errorf("%s: admissible = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestEngineExpelsRefusedUpdates: a non-finite update leaves the round
// at arrival. It never reaches the stream, submit tells the cohort it
// was refused, its client joins the transport's drops in sampled order
// with a ClientDropped for "invalid", and the strategy aggregates the
// rest.
func TestEngineExpelsRefusedUpdates(t *testing.T) {
	cfg := tinyFederationConfig()
	cfg.Rounds = 1
	sink := &telemetry.CollectSink{}
	cfg.Telemetry = telemetry.New(sink)
	sampled := rng.New(rng.DeriveSeed(cfg.Seed, "server", 0)).Sample(cfg.NumClients, cfg.PerRound)
	cohort := &fakeCohort{drop: sampled[1:2], nan: []int{sampled[3], sampled[0]}}
	strat := &countingStreams{}
	h, err := RunRounds(cfg, engineTestSet(), strat, cohort, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{sampled[0], sampled[1], sampled[3]}; !reflect.DeepEqual(h.Rounds[0].Dropped, want) {
		t.Fatalf("Dropped = %v, want %v (sampled %v)", h.Rounds[0].Dropped, want, sampled)
	}
	if got := strat.streams[0].slots; !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("stream saw slots %v, want only the admitted slot 2", got)
	}
	var invalid []int
	for _, e := range sink.ByKind("ClientDropped") {
		d := e.(telemetry.ClientDropped)
		if d.Reason != "invalid" || d.Round != 1 {
			t.Fatalf("drop event %+v", d)
		}
		invalid = append(invalid, d.ClientID)
	}
	if want := []int{sampled[0], sampled[3]}; !reflect.DeepEqual(invalid, want) {
		t.Fatalf("ClientDropped for %v, want %v", invalid, want)
	}
	if want := []int{sampled[0], sampled[3]}; !reflect.DeepEqual(cohort.refused, want) {
		t.Fatalf("submit refused %v, want %v: the cohort must learn each verdict", cohort.refused, want)
	}
}

// BenchmarkAdmitUpdate scans one default-preset FedGuard update: the
// small classifier's 20 522 weights and the small CVAE's 207 386-float
// decoder. make bench-guard holds it to a time ceiling and 0 allocs/op:
// the check reads the floats in place.
func BenchmarkAdmitUpdate(b *testing.B) {
	r := rng.New(3)
	u := Update{
		Weights: classifier.Small()(r).FlattenParams(),
		Decoder: cvae.New(cvae.SmallConfig(), r).DecoderParams(),
	}
	if len(u.Weights) != 20522 || len(u.Decoder) != 207386 {
		b.Fatalf("update of %d weights and %d decoder floats, not the default preset's", len(u.Weights), len(u.Decoder))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if !admissible(u) {
			b.Fatal("a finite update was refused")
		}
	}
}
