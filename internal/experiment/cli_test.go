package experiment

import (
	"flag"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIValidate parses command lines through BindFlags and holds
// Validate to what it refuses: a checkpoint flag with nothing to
// checkpoint into, and a negative cadence. No federation runs.
func TestCLIValidate(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // the refusal's text, or "" for a valid command line
	}{
		{nil, ""},
		{[]string{"-stream-audit"}, ""},
		{[]string{"-checkpoint-dir", "d"}, ""},
		{[]string{"-checkpoint-dir", "d", "-resume"}, ""},
		{[]string{"-checkpoint-dir", "d", "-checkpoint-every", "3"}, ""},
		{[]string{"-checkpoint-dir", "d", "-checkpoint-every", "0", "-resume"}, ""},
		{[]string{"-resume"}, "-resume requires -checkpoint-dir"},
		{[]string{"-resume", "-checkpoint-every", "2"}, "-resume requires -checkpoint-dir"},
		{[]string{"-checkpoint-every", "3"}, "-checkpoint-every requires -checkpoint-dir"},
		{[]string{"-checkpoint-every", "1"}, "-checkpoint-every requires -checkpoint-dir"},
		{[]string{"-checkpoint-dir", "d", "-checkpoint-every", "-2"}, "-checkpoint-every = -2"},
		{[]string{"-trace", "-events", "e.jsonl"}, ""},
		{[]string{"-trace"}, "-trace requires -events"},
		{[]string{"-trace", "-debug-addr", "127.0.0.1:0"}, "-trace requires -events"},
	} {
		fs := flag.NewFlagSet("cli", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		c := BindFlags(fs, PresetQuick)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		err := c.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%q refused: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%q: got %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}

// TestOpenTelemetryBuildsTOnlyForEvents holds OpenTelemetry to what the
// flags ask for: the event log is the one thing a *T records into, so
// -debug-addr alone serves its listener and builds no bundle, and -trace
// rides on -events.
func TestOpenTelemetryBuildsTOnlyForEvents(t *testing.T) {
	events := filepath.Join(t.TempDir(), "e.jsonl")
	for _, tc := range []struct {
		args         []string
		tel, tracing bool
	}{
		{nil, false, false},
		{[]string{"-debug-addr", "127.0.0.1:0"}, false, false},
		{[]string{"-events", events}, true, false},
		{[]string{"-events", events, "-trace", "-debug-addr", "127.0.0.1:0"}, true, true},
	} {
		fs := flag.NewFlagSet("cli", flag.ContinueOnError)
		c := BindFlags(fs, PresetQuick)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		tel, closeAll, err := c.OpenTelemetry("test", "sim")
		if err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		if (tel != nil) != tc.tel || (tel != nil && (tel.Tracer != nil) != tc.tracing) {
			t.Errorf("%q: bundle %+v, want bundle %v, tracing %v", tc.args, tel, tc.tel, tc.tracing)
		}
		closeAll()
	}
}
