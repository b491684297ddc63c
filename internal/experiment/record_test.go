package experiment

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"fedguard/internal/fl"
	"fedguard/internal/telemetry"
)

// requireWholeRecord holds one round's record to what a defense decision
// is: one entry per delivered update, kept exactly on the strategy's side
// of the threshold, ground truth agreeing with the sampled count — and
// nothing at all under a strategy that audits nothing.
func requireWholeRecord(t *testing.T, strategy string, rec fl.RoundRecord) {
	t.Helper()
	keep := map[string]func(score, threshold float64) bool{
		"FedGuard": func(s, th float64) bool { return s >= th },
		"Spectral": func(s, th float64) bool { return s <= th },
	}[strategy]
	if keep == nil {
		if rec.Decisions != nil || rec.Threshold != 0 || rec.Excluded() != 0 {
			t.Fatalf("%s round %d carries a decision: %+v", strategy, rec.Round, rec)
		}
		return
	}
	if len(rec.Decisions) != len(rec.Sampled)-len(rec.Dropped) {
		t.Fatalf("%s round %d: %d decisions for %d sampled, %d dropped",
			strategy, rec.Round, len(rec.Decisions), len(rec.Sampled), len(rec.Dropped))
	}
	malicious := 0
	for _, d := range rec.Decisions {
		if d.Kept != keep(d.Score, rec.Threshold) {
			t.Fatalf("%s round %d: client %d scored %v against %v, kept = %v",
				strategy, rec.Round, d.ClientID, d.Score, rec.Threshold, d.Kept)
		}
		if d.Malicious {
			malicious++
		}
	}
	// In-process nothing drops, so every sampled attacker is decided on.
	if malicious != rec.MaliciousSampled {
		t.Fatalf("%s round %d: %d malicious decisions, %d malicious sampled", strategy, rec.Round, malicious, rec.MaliciousSampled)
	}
}

// TestRecordIsWhole runs every kind of strategy on the small federation
// and checks each round's record, and that the -events log's
// RoundCompleted line carries the same decision vector.
func TestRecordIsWhole(t *testing.T) {
	setup := matrixTestSetup()
	for _, strategy := range []string{"FedAvg", "Krum", "FedGuard", "Spectral"} {
		var log bytes.Buffer
		sink := telemetry.NewJSONLSink(&log)
		res, err := Run(setup, mustScenario("sign-flip-50"), strategy, RunOptions{Telemetry: telemetry.New(sink)})
		if err != nil {
			t.Fatal(err)
		}
		sink.Flush()
		var lines []fl.RoundRecord
		for _, line := range strings.Split(log.String(), "\n") {
			var env struct {
				Event string
				Data  fl.RoundRecord
			}
			if strings.Contains(line, `"RoundCompleted"`) {
				if err := json.Unmarshal([]byte(line), &env); err != nil {
					t.Fatal(err)
				}
				lines = append(lines, env.Data)
			}
		}
		if len(lines) != len(res.History.Rounds) {
			t.Fatalf("%s: %d RoundCompleted lines for %d rounds", strategy, len(lines), len(res.History.Rounds))
		}
		for i, rec := range res.History.Rounds {
			requireWholeRecord(t, strategy, rec)
			if lines[i].Threshold != rec.Threshold || !slices.Equal(lines[i].Decisions, rec.Decisions) {
				t.Fatalf("%s round %d: the log says %+v at %v, the record %+v at %v",
					strategy, rec.Round, lines[i].Decisions, lines[i].Threshold, rec.Decisions, rec.Threshold)
			}
		}
	}
}
