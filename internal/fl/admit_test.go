package fl_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"fedguard/internal/aggregate"
	"fedguard/internal/attack"
	"fedguard/internal/dataset"
	"fedguard/internal/fl"
	"fedguard/internal/rng"
	"fedguard/internal/telemetry"
)

// nanUpload uploads a trained model with one weight set to NaN.
type nanUpload struct{}

func (nanUpload) Name() string { return "nan-upload" }
func (nanUpload) PoisonData(ds *dataset.Dataset, indices []int) (*dataset.Dataset, []int) {
	return ds, indices
}
func (nanUpload) PoisonModel(w []float32, _ *rng.RNG) { w[len(w)/3] = float32(math.NaN()) }

// infCohort uploads finite drafts and then, at the round barrier, has
// the colluders rewrite every draft to +Inf.
type infCohort struct{ nanUpload }

func (infCohort) Name() string                    { return "inf-cohort" }
func (infCohort) PoisonModel([]float32, *rng.RNG) {}
func (infCohort) PoisonCohort(drafts [][]float32, _ []int, _ *rng.RNG) {
	for _, d := range drafts {
		d[0] = float32(math.Inf(1))
	}
}

// TestNonFiniteUploadsLeaveTheRound: in process, a client whose upload
// carries a non-finite weight — as it arrives, or after the colluders'
// rewrite — is dropped in every round that samples it, announced as
// "invalid", and FedAvg ends on finite weights.
func TestNonFiniteUploadsLeaveTheRound(t *testing.T) {
	train, test := resumeData(t)
	for _, att := range []attack.Attack{nanUpload{}, infCohort{}} {
		t.Run(att.Name(), func(t *testing.T) {
			cfg := resumeConfig()
			cfg.Attack = att
			sink := &telemetry.CollectSink{}
			cfg.Telemetry = telemetry.New(sink)
			fed, err := fl.NewFederation(train, test, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h, err := fed.Run(aggregate.NewFedAvg(), nil)
			if err != nil {
				t.Fatal(err)
			}
			drops := 0
			for _, rec := range h.Rounds {
				var want []int
				for _, id := range rec.Sampled {
					if fed.MaliciousIDs[id] {
						want = append(want, id)
					}
				}
				if !reflect.DeepEqual(rec.Dropped, want) {
					t.Fatalf("round %d sampled %v and dropped %v, want the malicious %v", rec.Round, rec.Sampled, rec.Dropped, want)
				}
				drops += len(want)
			}
			if drops == 0 {
				t.Fatal("no round sampled a malicious client: the check above is vacuous")
			}
			if n := len(sink.ByKind("ClientDropped")); n != drops {
				t.Fatalf("%d ClientDropped events for %d drops", n, drops)
			}
			for _, w := range h.FinalWeights {
				if math.IsNaN(float64(w)) || math.IsInf(float64(w), 0) {
					t.Fatalf("final weights hold %v", w)
				}
			}
		})
	}
}

// TestRoundOfRefusedUpdatesFails: a round whose every update was refused
// has nothing to aggregate, and the run fails as ErrNoUpdates.
func TestRoundOfRefusedUpdatesFails(t *testing.T) {
	train, test := resumeData(t)
	cfg := resumeConfig()
	cfg.MaliciousFraction, cfg.Attack = 1, nanUpload{}
	fed, err := fl.NewFederation(train, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Run(aggregate.NewFedAvg(), nil); !errors.Is(err, aggregate.ErrNoUpdates) {
		t.Fatalf("err = %v, want ErrNoUpdates", err)
	}
}
