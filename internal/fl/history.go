package fl

import "math"

// RoundRecord captures one federated round's outcome and cost. It is
// also the round's telemetry: RunRounds emits it as the RoundCompleted
// event, under the JSON keys below.
type RoundRecord struct {
	Round        int     `json:"round"`
	TestAccuracy float64 `json:"test_accuracy"`
	// TrainSeconds is the client-compute phase (parallel local training,
	// including CVAE work and — in the networked deployment — the wire
	// round-trips). AggregateSeconds is the server's defense/aggregation
	// cost, and EvalSeconds the global-model evaluation. The split is
	// what lets Table V-style overhead reports separate client compute
	// from server defense cost.
	TrainSeconds     float64 `json:"train_seconds"`
	AggregateSeconds float64 `json:"aggregate_seconds"`
	EvalSeconds      float64 `json:"eval_seconds"`
	// Seconds is the total wall-clock duration of the round; it equals
	// TrainSeconds + AggregateSeconds + EvalSeconds.
	Seconds float64 `json:"seconds"`
	// UploadBytes is the server→client traffic (global model broadcast);
	// DownloadBytes is the client→server traffic (updates, plus decoders
	// under FedGuard). Both follow the paper's Table V accounting: the
	// logical payload sizes at 4 bytes per parameter.
	UploadBytes   int64 `json:"upload_bytes"`
	DownloadBytes int64 `json:"download_bytes"`
	// WireUploadBytes/WireDownloadBytes are the bytes that actually
	// crossed the socket this round, including framing, retries, and the
	// savings from decoder dedup, delta encoding and the float codec. In
	// the in-process simulator they mirror the logical sizes with dedup
	// semantics applied (a decoder is charged only when it would be
	// (re)sent), so Table V can report logical vs on-wire side by side.
	WireUploadBytes   int64 `json:"wire_upload_bytes"`
	WireDownloadBytes int64 `json:"wire_download_bytes"`
	// Sampled lists this round's participating client IDs.
	Sampled []int `json:"sampled"`
	// MaliciousSampled counts how many of them were malicious.
	MaliciousSampled int `json:"malicious_sampled"`
	// Dropped lists sampled clients excluded from this round's
	// aggregation because they failed to deliver an update (networked
	// deployments only; nil for in-process runs and healthy rounds).
	Dropped []int `json:"dropped,omitempty"`
	// Threshold is the bar the round's defense held its scores to (their
	// mean) and Decisions its verdict on every delivered update, in
	// aggregation order: score, kept or dropped, and whether the client
	// was in fact malicious. Zero and nil under strategies that audit
	// nothing (FedAvg, GeoMed, Krum).
	Threshold float64    `json:"threshold,omitempty"`
	Decisions []Decision `json:"decisions,omitempty"`
	// Report carries strategy-specific diagnostics (e.g. Krum's pick).
	Report map[string]float64 `json:"report,omitempty"`
}

// Kind implements telemetry.Event: a round's record is its
// RoundCompleted event.
func (RoundRecord) Kind() string { return "RoundCompleted" }

// Excluded returns the number of updates the round's defense rejected
// (0 when no defense decided anything).
func (r RoundRecord) Excluded() int {
	n := 0
	for _, d := range r.Decisions {
		if !d.Kept {
			n++
		}
	}
	return n
}

// History is the full record of one federation run.
type History struct {
	Strategy string
	Rounds   []RoundRecord
	// FinalWeights is the global parameter vector after the last round —
	// the trained model, ready for persist.SaveWeights or per-class
	// analysis with package metrics.
	FinalWeights []float32 `json:",omitempty"`
}

// Accuracies returns the per-round test accuracy series (Fig. 4 / Fig. 5
// material).
func (h *History) Accuracies() []float64 {
	out := make([]float64, len(h.Rounds))
	for i, r := range h.Rounds {
		out[i] = r.TestAccuracy
	}
	return out
}

// FinalAccuracy returns the last round's test accuracy (0 if empty).
func (h *History) FinalAccuracy() float64 {
	if len(h.Rounds) == 0 {
		return 0
	}
	return h.Rounds[len(h.Rounds)-1].TestAccuracy
}

// LastNStats returns the mean and standard deviation of test accuracy
// over the final n rounds — the paper's Table IV metric ("average
// accuracy over the last 40 rounds"). If fewer than n rounds exist, all
// rounds are used.
func (h *History) LastNStats(n int) (mean, std float64) {
	accs := h.Accuracies()
	if len(accs) > n {
		accs = accs[len(accs)-n:]
	}
	if len(accs) == 0 {
		return 0, 0
	}
	for _, a := range accs {
		mean += a
	}
	mean /= float64(len(accs))
	for _, a := range accs {
		d := a - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(accs)))
	return mean, std
}

// MeanSeconds returns the average wall-clock round duration.
func (h *History) MeanSeconds() float64 {
	if len(h.Rounds) == 0 {
		return 0
	}
	var s float64
	for _, r := range h.Rounds {
		s += r.Seconds
	}
	return s / float64(len(h.Rounds))
}

// MeanPhaseSeconds returns the average per-round duration of each
// phase: client training, server aggregation (including any defense),
// and global-model evaluation. Together they average to MeanSeconds.
func (h *History) MeanPhaseSeconds() (train, aggregate, eval float64) {
	if len(h.Rounds) == 0 {
		return 0, 0, 0
	}
	for _, r := range h.Rounds {
		train += r.TrainSeconds
		aggregate += r.AggregateSeconds
		eval += r.EvalSeconds
	}
	n := float64(len(h.Rounds))
	return train / n, aggregate / n, eval / n
}

// MeanBytes returns the average per-round server upload and download
// traffic (Table V columns).
func (h *History) MeanBytes() (up, down int64) {
	if len(h.Rounds) == 0 {
		return 0, 0
	}
	var u, d int64
	for _, r := range h.Rounds {
		u += r.UploadBytes
		d += r.DownloadBytes
	}
	n := int64(len(h.Rounds))
	return u / n, d / n
}

// MeanWireBytes returns the average per-round measured wire traffic —
// the compressed-path counterpart of MeanBytes.
func (h *History) MeanWireBytes() (up, down int64) {
	if len(h.Rounds) == 0 {
		return 0, 0
	}
	var u, d int64
	for _, r := range h.Rounds {
		u += r.WireUploadBytes
		d += r.WireDownloadBytes
	}
	n := int64(len(h.Rounds))
	return u / n, d / n
}
