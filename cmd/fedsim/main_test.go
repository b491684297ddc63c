package main

import (
	"flag"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fedguard/internal/experiment"
	"fedguard/internal/telemetry"
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
		"events": "", "debug-addr": "", "trace": "false",
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

// TestNegativeOverridesRefused: -rounds, -samples and -server-lr below
// zero fail, naming the flag, instead of running the preset's value;
// zero keeps the preset's and a positive value replaces it.
func TestNegativeOverridesRefused(t *testing.T) {
	preset := experiment.Setup{Rounds: 8, Samples: 32, ServerLR: 1}
	same := func(s experiment.Setup) bool {
		return s.Rounds == preset.Rounds && s.Samples == preset.Samples && s.ServerLR == preset.ServerLR
	}
	for _, tc := range []struct {
		flag            string
		rounds, samples int
		serverLR        float64
	}{
		{"-rounds", -1, 0, 0},
		{"-samples", 0, -5, 0},
		{"-server-lr", 0, 0, -0.5},
		{"-server-lr", 0, 0, math.NaN()},
	} {
		setup := preset
		err := applyOverrides(&setup, tc.rounds, tc.samples, tc.serverLR)
		if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
			t.Errorf("%s below zero: error %v", tc.flag, err)
		}
		if !same(setup) {
			t.Errorf("%s below zero changed the setup: %+v", tc.flag, setup)
		}
	}
	setup := preset
	if err := applyOverrides(&setup, 0, 0, 0); err != nil || !same(setup) {
		t.Fatalf("zero overrides: %v, setup %+v", err, setup)
	}
	if err := applyOverrides(&setup, 3, 10, 0.5); err != nil || setup.Rounds != 3 || setup.Samples != 10 || setup.ServerLR != 0.5 {
		t.Fatalf("positive overrides: %v, setup %+v", err, setup)
	}
}

// TestMatrixWriteErrorReturns: a sweep whose -matrix-csv cannot be
// written returns the error to main, which closes the event log before
// exiting, instead of exiting from inside the sweep past that close.
func TestMatrixWriteErrorReturns(t *testing.T) {
	setup := experiment.MustSetup(experiment.PresetQuick)
	setup.Rounds = 1
	saved := []string{*matrixScenarios, *matrixStrategies, *matrixCSV}
	defer func() { *matrixScenarios, *matrixStrategies, *matrixCSV = saved[0], saved[1], saved[2] }()
	*matrixScenarios, *matrixStrategies = "no-attack", "FedAvg"
	*matrixCSV = filepath.Join(t.TempDir(), "missing", "matrix.csv")

	sink := &telemetry.CollectSink{}
	err := runMatrixCLI(setup, telemetry.New(sink))
	if err == nil || !strings.Contains(err.Error(), "matrix.csv") {
		t.Fatalf("err = %v, want the CSV write's", err)
	}
	if n := len(sink.ByKind("MatrixCellCompleted")); n != 1 {
		t.Fatalf("%d MatrixCellCompleted events before the error, want 1", n)
	}
}
