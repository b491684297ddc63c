package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"
)

// TestFlagSurface pins fedbench's command line: no flag may be added,
// renamed, dropped or re-defaulted unnoticed.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"preset": "default", "out": "results", "ablations": "false",
		"fig4-only": "false",
	}
	got := map[string]string{}
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got[f.Name] = f.DefValue
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flag names and defaults changed:\n got %v\nwant %v", got, want)
	}
}
