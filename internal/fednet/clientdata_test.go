package fednet

import (
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"fedguard/internal/attack"
	"fedguard/internal/dataset"
	"fedguard/internal/fl"
	"fedguard/internal/rng"
	"fedguard/internal/wire"
)

// TestBuildClientMatchesFullDatasetClient holds the compact-index remap
// to the in-process client: for a benign, a label-flip and a
// decoder-forge client of the quick preset, the client buildClient makes
// from the server's Setup (its partition alone, indexed 0..len-1) and an
// fl.NewClient over the whole training set with the server's global
// indices upload byte-equal updates, decoder and decoder classes
// included, two rounds running. PoisonData, PoisonCVAEData and classesOf
// all walk those indices.
func TestBuildClientMatchesFullDatasetClient(t *testing.T) {
	cfg := quickConfig()
	full := dataset.Generate(cfg.TrainSize, dataset.DefaultGenOptions(), rng.New(cfg.DataSeed))
	parts := fl.Partition(full, cfg.Experiment)
	global := fl.InitialGlobal(cfg.Experiment)

	for id, attackName := range []string{"", "label-flip", "decoder-forge"} {
		name := attackName
		if name == "" {
			name = "benign"
		}
		t.Run(name, func(t *testing.T) {
			cfg.AttackName = attackName
			setup := (&Server{cfg: cfg}).setupFor(id, parts[id], attackName != "")
			compact, err := buildClient(id, setup)
			if err != nil {
				t.Fatal(err)
			}
			att, err := attack.ByName(attackName, setup.AttackSeed)
			if err != nil {
				t.Fatal(err)
			}
			reference := fl.NewClient(id, full, parts[id], cfg.Experiment.Client, att,
				rng.New(fl.ClientRNGSeed(cfg.Experiment.Seed, id)))

			g := global
			for round := 1; round <= 2; round++ {
				got, want := compact.RunRound(g, true), reference.RunRound(g, true)
				if got.ClientID != want.ClientID || got.NumSamples != want.NumSamples {
					t.Fatalf("round %d: client %d with %d samples, want client %d with %d",
						round, got.ClientID, got.NumSamples, want.ClientID, want.NumSamples)
				}
				if !reflect.DeepEqual(got.Weights, want.Weights) {
					t.Fatalf("round %d: weights differ from the full-dataset client's", round)
				}
				if len(want.Decoder) == 0 || !reflect.DeepEqual(got.Decoder, want.Decoder) {
					t.Fatalf("round %d: decoder (%d params) differs from the full-dataset client's (%d)",
						round, len(got.Decoder), len(want.Decoder))
				}
				if !reflect.DeepEqual(got.DecoderClasses, want.DecoderClasses) {
					t.Fatalf("round %d: decoder classes %v, want %v", round, got.DecoderClasses, want.DecoderClasses)
				}
				g = want.Weights
			}
		})
	}
}

// serveSetup plays the server's half of registration on one end of a
// pipe — read the Hello, answer with setup, then shut the session down —
// and returns what ServeClientOpts made of it on the other end.
func serveSetup(t *testing.T, setup *wire.Setup) error {
	t.Helper()
	server, client := net.Pipe()
	defer server.Close()
	done := make(chan error, 1)
	go func() {
		defer client.Close()
		done <- ServeClientOpts(client, 0, ClientOptions{})
	}()
	server.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := wire.ReadMessage(server); err != nil {
		t.Fatalf("reading hello: %v", err)
	}
	if err := wire.WriteMessage(server, setup); err != nil {
		t.Fatalf("writing setup: %v", err)
	}
	// A client that rejected the Setup has hung up: the write fails, and
	// its error is the one under test.
	_ = wire.WriteMessage(server, &wire.Shutdown{})
	return <-done
}

// TestHostileSetupIndicesAreAnError: a Setup whose partition names a
// sample the training set does not have, or the same sample twice, ends
// the session with an error. With the whole dataset in hand such an
// index panicked at the first batch; the compact dataset must not turn
// it into a silently blank sample. An empty partition stays legal.
func TestHostileSetupIndicesAreAnError(t *testing.T) {
	cfg := testConfig()
	base := (&Server{cfg: cfg}).setupFor(0, nil, false)
	for _, tc := range []struct {
		name    string
		indices []uint32
		wantErr string
	}{
		{"empty partition", nil, ""},
		{"in range", []uint32{0, 149, 7}, ""},
		{"one past the end", []uint32{3, uint32(cfg.TrainSize)}, "outside"},
		{"far out of range", []uint32{math.MaxUint32}, "outside"},
		{"duplicate", []uint32{5, 9, 5}, "twice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setup := *base
			setup.Indices = tc.indices
			err := serveSetup(t, &setup)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("legal setup refused: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error %v, want one mentioning %q", err, tc.wantErr)
			}
		})
	}
}
