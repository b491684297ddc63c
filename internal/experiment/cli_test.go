package experiment

import (
	"flag"
	"io"
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
