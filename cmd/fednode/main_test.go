package main

import (
	"flag"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fedguard/internal/experiment"
	"fedguard/internal/fednet"
)

// TestFlagSurface pins fednode's command line: the shared binding must
// not add, rename, drop or re-default a flag.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"mode": "server", "listen": ":7070", "addr": "127.0.0.1:7070", "id": "0",
		"preset": "quick", "scenario": "no-attack", "strategy": "FedGuard",
		"events": "", "debug-addr": "", "compress": "false", "trace": "false", "stream-audit": "false",
		"min-clients": "0", "round-timeout": "0s", "io-timeout": "0s", "retries": "0",
		"register-timeout": "0s", "redial": "0",
		"checkpoint-dir": "", "checkpoint-every": "1", "resume": "false",
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

// TestServerEqualsFedsim holds the server this binary builds from its
// flags to the simulator: over loopback, against ServeClientOpts clients,
// it ends on the weights — and reports the per-round accuracies —
// experiment.Run produces for the same preset, scenario and strategy.
// Each case runs over one transport: FedGuard and the additive-noise
// case over the raw dialect, the benign FedAvg case compressed (fednet
// pins that the two dialects end on the same bits). Rounds are trimmed
// on both sides to keep the test short: one FedGuard round trains every
// sampled client's CVAE and audits the decoders it uploads; three
// compressed FedAvg rounds move the delta base off ψ₀. The
// additive-noise case runs at a seed that is not the preset's, set on
// both sides, so the colluders' shared noise must follow the run's seed.
func TestServerEqualsFedsim(t *testing.T) {
	if testing.Short() {
		t.Skip("six quick-preset federations, two of them training CVAEs")
	}
	for _, name := range []string{"preset", "scenario", "strategy", "compress"} {
		old := flag.Lookup(name).Value.String()
		t.Cleanup(func() { flag.Set(name, old) })
	}
	for _, tc := range []struct {
		scenario, strategy string
		rounds             int
		seed               uint64
		compress           string
	}{
		{"sign-flip-50", "FedGuard", 1, 0, "false"},
		{"no-attack", "FedAvg", 3, 0, "true"},
		{"additive-noise-50", "FedAvg", 2, 11, "false"},
	} {
		t.Run(tc.scenario+"/"+tc.strategy, func(t *testing.T) {
			setup := experiment.MustSetup(experiment.PresetQuick)
			setup.Rounds = tc.rounds
			sc, err := experiment.ScenarioByID(tc.scenario)
			if err != nil {
				t.Fatal(err)
			}
			sim, err := experiment.Run(setup, sc, tc.strategy, experiment.RunOptions{Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			args := map[string]string{"preset": "quick", "scenario": tc.scenario, "strategy": tc.strategy, "compress": tc.compress}
			for name, value := range args {
				if err := flag.Set(name, value); err != nil {
					t.Fatal(err)
				}
			}
			setup, cfg, strat, err := serverConfig()
			if err != nil {
				t.Fatal(err)
			}
			cfg.Experiment.Rounds = tc.rounds
			if tc.seed != 0 {
				cfg.Experiment.Seed = tc.seed
			}
			srv, err := fednet.NewServer(cfg, setup.TestData(), strat)
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for id := 0; id < setup.NumClients; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					conn, err := net.Dial("tcp", ln.Addr().String())
					if err != nil {
						t.Errorf("client %d: %v", id, err)
						return
					}
					defer conn.Close()
					if err := fednet.ServeClientOpts(conn, id, fednet.ClientOptions{Compress: cfg.Compress}); err != nil {
						t.Errorf("client %d: %v", id, err)
					}
				}(id)
			}
			h, err := srv.Run(ln, nil)
			ln.Close()
			wg.Wait()
			if err != nil {
				t.Fatalf("fednode %v: %v", args, err)
			}
			for i, rec := range h.Rounds {
				if rec.TestAccuracy != sim.History.Rounds[i].TestAccuracy {
					t.Fatalf("fednode %v round %d: accuracy %v, fedsim %v", args, i+1,
						rec.TestAccuracy, sim.History.Rounds[i].TestAccuracy)
				}
			}
			if !reflect.DeepEqual(h.FinalWeights, sim.History.FinalWeights) {
				t.Fatalf("fednode %v: final weights differ from fedsim's", args)
			}
		})
	}
}
