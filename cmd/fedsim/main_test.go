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
		"server-lr": "0", "seed": "0", "rounds": "0", "samples": "0", "stream-audit": "false",
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

// TestMatrixRefusesSingleRunFlags: a sweep fails fast, naming the flag,
// instead of dropping a single run's flag it cannot honour.
func TestMatrixRefusesSingleRunFlags(t *testing.T) {
	for _, name := range matrixRefuses {
		// A copy of the command line, so nothing here sets fedsim's flags.
		fs := flag.NewFlagSet("fedsim", flag.ContinueOnError)
		flag.VisitAll(func(f *flag.Flag) { fs.String(f.Name, f.DefValue, f.Usage) })
		for _, sweep := range []string{"matrix", "matrix-workers", "matrix-csv", "seed", "server-lr", "events"} {
			if err := fs.Set(sweep, "1"); err != nil {
				t.Fatal(err)
			}
		}
		if err := checkMatrixFlags(fs); err != nil {
			t.Fatalf("sweep flags refused: %v", err)
		}
		if err := fs.Set(name, fs.Lookup(name).DefValue); err != nil {
			t.Fatal(err)
		}
		if err := checkMatrixFlags(fs); err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
			t.Fatalf("-%s with -matrix: error %v", name, err)
		}
	}
}
