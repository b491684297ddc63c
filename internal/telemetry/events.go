package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Event is one structured run event. Implementations are plain data
// structs; Kind returns the stable event-type name written to the log.
type Event interface {
	Kind() string
}

// RunStarted opens an experiment's event stream.
type RunStarted struct {
	Strategy          string  `json:"strategy"`
	NumClients        int     `json:"num_clients"`
	PerRound          int     `json:"per_round"`
	Rounds            int     `json:"rounds"`
	Seed              uint64  `json:"seed"`
	Attack            string  `json:"attack,omitempty"`
	MaliciousFraction float64 `json:"malicious_fraction,omitempty"`
}

// Kind implements Event.
func (RunStarted) Kind() string { return "RunStarted" }

// ClientDropped records one client leaving a round: the networked
// server abandoned it (it missed its deadline, exhausted its retries, or
// died mid-frame), or the round engine refused its update. Its update is
// excluded from aggregation (and from FedGuard's audit) exactly like a
// defense-excluded one, and a networked client may rejoin at a later
// round.
type ClientDropped struct {
	Round    int `json:"round"`
	ClientID int `json:"client_id"`
	// Reason is "timeout" (deadline expired), "transport" (connection
	// died), "protocol" (corrupt or unexpected frames), "disconnected"
	// (no live connection when the round started), or "invalid" (a
	// non-finite weight or decoder float, refused in any transport; the
	// connection stays).
	Reason string `json:"reason"`
}

// Kind implements Event.
func (ClientDropped) Kind() string { return "ClientDropped" }

// ClientRejoined records a previously dropped (or never-registered)
// client re-registering mid-run; it receives the current global model
// with its next TrainRequest.
type ClientRejoined struct {
	Round    int `json:"round"`
	ClientID int `json:"client_id"`
}

// Kind implements Event.
func (ClientRejoined) Kind() string { return "ClientRejoined" }

// RegistrationRefused records the networked server turning away a
// connection whose registration handshake failed: a missing or malformed
// Hello, an out-of-range client ID, or a Setup it could not send. Only a
// fault-tolerant server refuses and carries on; a strict one fails the
// run. Round is the last round the server had begun (0 before the
// first).
type RegistrationRefused struct {
	Round int    `json:"round"`
	Err   string `json:"err"`
}

// Kind implements Event.
func (RegistrationRefused) Kind() string { return "RegistrationRefused" }

// RoundDegraded records a round that proceeded without its full sampled
// cohort: Responsive of Sampled clients returned updates and the rest
// were dropped (listed in Dropped, in sampled order).
type RoundDegraded struct {
	Round      int   `json:"round"`
	Sampled    int   `json:"sampled"`
	Responsive int   `json:"responsive"`
	Dropped    []int `json:"dropped"`
}

// Kind implements Event.
func (RoundDegraded) Kind() string { return "RoundDegraded" }

// CheckpointWritten records one crash-safe checkpoint landing on disk
// (already fsynced and atomically renamed into place). Bytes is what
// this save wrote — the round file plus any decoder payload persisted
// for the first time — not the size of the checkpoint directory.
// Seconds is the full persistence cost: snapshot, serialize, fsync and
// rename.
type CheckpointWritten struct {
	Round   int     `json:"round"`
	Path    string  `json:"path,omitempty"`
	Bytes   int64   `json:"bytes,omitempty"`
	Seconds float64 `json:"seconds"`
}

// Kind implements Event.
func (CheckpointWritten) Kind() string { return "CheckpointWritten" }

// RunResumed records a server continuing a run from a checkpoint: Round
// is the last completed round it restored, so the run picks up at
// Round+1 with state that makes the remaining rounds byte-identical to
// an uninterrupted run.
type RunResumed struct {
	Round    int    `json:"round"`
	Strategy string `json:"strategy,omitempty"`
}

// Kind implements Event.
func (RunResumed) Kind() string { return "RunResumed" }

// RunCompleted closes an experiment's event stream, a failed run's too:
// Rounds is how many rounds the history holds, and Error names the
// failure.
type RunCompleted struct {
	Rounds        int     `json:"rounds"`
	FinalAccuracy float64 `json:"final_accuracy"`
	TotalSeconds  float64 `json:"total_seconds"`
	Error         string  `json:"error,omitempty"`
}

// Kind implements Event.
func (RunCompleted) Kind() string { return "RunCompleted" }

// MatrixCellCompleted records one finished cell of an attack×strategy
// evaluation matrix: its grid coordinates, summary accuracy, and the
// defense's exclusion performance against the cell's adversary.
type MatrixCellCompleted struct {
	Scenario      string  `json:"scenario"`
	Strategy      string  `json:"strategy"`
	MeanAccuracy  float64 `json:"mean_accuracy"`
	StdAccuracy   float64 `json:"std_accuracy"`
	FinalAccuracy float64 `json:"final_accuracy"`
	// MaliciousExclusionRate is excluded-malicious / sampled-malicious
	// update slots; BenignExclusionRate is the benign counterpart (the
	// defense's false-positive rate).
	MaliciousExclusionRate float64 `json:"malicious_exclusion_rate"`
	BenignExclusionRate    float64 `json:"benign_exclusion_rate"`
	Seconds                float64 `json:"seconds"`
	Err                    string  `json:"err,omitempty"`
}

// Kind implements Event.
func (MatrixCellCompleted) Kind() string { return "MatrixCellCompleted" }

// Sink consumes structured events. Implementations must be safe for
// concurrent use; Emit must never panic the run.
type Sink interface {
	Emit(Event)
}

// envelope is the JSONL wire form: one object per line with the event
// kind, an RFC3339Nano timestamp, and the event payload under data.
type envelope struct {
	Time  string `json:"time"`
	Event string `json:"event"`
	Data  Event  `json:"data"`
}

// JSONLSink writes one JSON object per event to an io.Writer, newline
// delimited and buffered (64 KiB — span-heavy traced runs emit far too
// many events for one syscall each). Marshalling errors are swallowed
// (telemetry must never abort an experiment); the first write error is
// retained, stops further writes, and is returned by Flush (and so by
// FileSink.Close).
//
// JSONLSink is goroutine-safe: Emit and Flush may be called from any
// number of goroutines (the networked server's per-client request
// goroutines all share one sink). The buffer is flushed automatically
// when a RunCompleted event passes through, so the log on disk is
// complete at the moment a run logically ends even if the process never
// reaches Close.
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
	now func() time.Time
}

// NewJSONLSink wraps w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriterSize(w, 64<<10), now: time.Now}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(e Event) {
	b, err := json.Marshal(envelope{
		Time:  s.now().UTC().Format(time.RFC3339Nano),
		Event: e.Kind(),
		Data:  e,
	})
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		_, s.err = s.w.Write(b)
	}
	// RunCompleted closes the logical stream: make the file complete now,
	// not at whenever Close happens to run.
	if _, done := e.(RunCompleted); done && s.err == nil {
		s.err = s.w.Flush()
	}
}

// Flush forces buffered events through to the underlying writer and
// returns the first sink error, if any.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = s.w.Flush()
	}
	return s.err
}

// FileSink is a JSONLSink over an owned file.
type FileSink struct {
	*JSONLSink
	f *os.File
}

// NewFileSink creates (truncating) path and streams JSONL events to it.
func NewFileSink(path string) (*FileSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: event log: %w", err)
	}
	return &FileSink{JSONLSink: NewJSONLSink(f), f: f}, nil
}

// Close flushes and closes the underlying file, reporting any deferred
// write error.
func (s *FileSink) Close() error {
	werr := s.Flush()
	if err := s.f.Close(); err != nil {
		return err
	}
	return werr
}

// CollectSink buffers events in memory — for tests and for programmatic
// post-run analysis.
type CollectSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Sink.
func (s *CollectSink) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// ByKind returns the collected events of one kind, in emission order.
func (s *CollectSink) ByKind(kind string) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Event
	for _, e := range s.events {
		if e.Kind() == kind {
			out = append(out, e)
		}
	}
	return out
}
