package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"
)

// TestFlagSurface pins fedsim's command line: the shared binding must
// not add, rename, drop or re-default a flag.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"preset": "default", "scenario": "no-attack", "strategy": "FedGuard",
		"server-lr": "0", "seed": "0", "rounds": "0", "samples": "0", "workers": "0",
		"agg-workers": "0", "stream-audit": "false",
		"checkpoint-dir": "", "checkpoint-every": "1", "resume": "false",
		"csv": "false", "confusion": "false", "save": "", "list": "false",
		"matrix": "false", "matrix-workers": "1", "matrix-scenarios": "", "matrix-strategies": "",
		"matrix-csv": "", "matrix-json": "",
		"events": "", "debug-addr": "", "metrics-out": "", "trace": "false",
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
