// Package experiment turns the paper's evaluation section into runnable
// specifications: the five attack scenarios of Fig. 4 / Table IV, the
// server-learning-rate study of Fig. 5, the system-overhead study of
// Table V, and the ablations suggested by §VI. Each study is a list of
// Cells — (Setup, Scenario, strategy name), the study's override already
// in the Setup — that RunMatrix runs into Results the table/figure
// emitters render.
package experiment

import (
	"fmt"

	"fedguard/internal/classifier"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/fl"
	"fedguard/internal/rng"
)

// Preset selects an experiment scale.
type Preset string

// Presets. Quick is for tests and smoke runs; Default balances fidelity
// and CPU time; Paper is the full 100-client configuration of §IV-A
// (hours of CPU time in pure Go).
const (
	PresetQuick   Preset = "quick"
	PresetDefault Preset = "default"
	PresetPaper   Preset = "paper"
)

// Setup fixes the scale-dependent parameters of an experiment run.
type Setup struct {
	Preset Preset

	TrainSize, TestSize int
	// AuxSize is the auxiliary ("public") dataset granted to Spectral.
	AuxSize int

	NumClients, PerRound, Rounds int
	Alpha                        float64
	ServerLR                     float64

	Arch      classifier.Arch
	ArchName  string
	Train     classifier.TrainConfig
	CVAE      cvae.Config
	CVAETrain cvae.TrainConfig

	// Samples is FedGuard's t; 0 means 2·PerRound (the paper's t = 2m).
	Samples int
	// LastN is the Table IV averaging window ("last 40 rounds" in the
	// paper; scaled with Rounds here).
	LastN int
	// TestSubset caps per-round evaluation (0 = whole test set).
	TestSubset int
	// Seed is the run's one seed: partition, malicious placement,
	// sampling, ψ₀, client streams and collusion. The data is dataSeed's.
	Seed uint64
}

// dataSeed seeds every preset's data at any Seed: the train, test and
// auxiliary sets and Spectral's pretraining.
const dataSeed = 7

// NewSetup returns the named preset.
func NewSetup(p Preset) (Setup, error) {
	switch p {
	case PresetQuick:
		return Setup{
			Preset:    p,
			TrainSize: 2400, TestSize: 300, AuxSize: 200,
			NumClients: 16, PerRound: 8, Rounds: 8,
			Alpha: 10, ServerLR: 1,
			Arch: classifier.Tiny(), ArchName: "tiny",
			Train:     classifier.TrainConfig{Epochs: 4, BatchSize: 32, LR: 0.1, Momentum: 0.9},
			CVAE:      cvae.Config{Input: 784, Hidden: 256, Latent: 2, Classes: 10},
			CVAETrain: cvae.TrainConfig{Epochs: 25, BatchSize: 32, LR: 1e-3},
			Samples:   100, LastN: 4, TestSubset: 300, Seed: 7,
		}, nil
	case PresetDefault:
		return Setup{
			Preset:    p,
			TrainSize: 3000, TestSize: 600, AuxSize: 400,
			NumClients: 30, PerRound: 16, Rounds: 10,
			Alpha: 10, ServerLR: 1,
			Arch: classifier.Small(), ArchName: "small",
			Train:     classifier.TrainConfig{Epochs: 2, BatchSize: 32, LR: 0.05, Momentum: 0.9},
			CVAE:      cvae.SmallConfig(),
			CVAETrain: cvae.TrainConfig{Epochs: 30, BatchSize: 32, LR: 1e-3},
			Samples:   100, LastN: 6, TestSubset: 400, Seed: 7,
		}, nil
	case PresetPaper:
		return Setup{
			Preset:    p,
			TrainSize: 60000, TestSize: 10000, AuxSize: 1000,
			NumClients: 100, PerRound: 50, Rounds: 50,
			Alpha: 10, ServerLR: 1,
			Arch: classifier.Paper(), ArchName: "paper",
			Train:     classifier.DefaultTrainConfig(),
			CVAE:      cvae.PaperConfig(),
			CVAETrain: cvae.DefaultTrainConfig(),
			LastN:     40, TestSubset: 2000, Seed: 7,
		}, nil
	default:
		return Setup{}, fmt.Errorf("experiment: unknown preset %q", p)
	}
}

// MustSetup returns the named preset or panics (for tests and examples).
func MustSetup(p Preset) Setup {
	s, err := NewSetup(p)
	if err != nil {
		panic(err)
	}
	return s
}

// TrainDataSeed seeds the setup's training stream. Data draws from it
// and a networked run hands it to its clients, so every deployment of a
// preset sees the same data, whatever the run's Seed.
func (s Setup) TrainDataSeed() uint64 { return dataSeed ^ 0x7261696e } // "rain"

// TestData renders the held-out set alone — all of the data a networked
// server needs, which evaluates and leaves training to its clients.
func (s Setup) TestData() *dataset.Dataset {
	return dataset.Generate(s.TestSize, dataset.DefaultGenOptions(), rng.New(dataSeed^0x74657374)) // "test"
}

// Data materializes the setup's train, test and auxiliary datasets. The
// streams are decoupled so a preset always sees the same data regardless
// of which strategies run or at which Seed.
func (s Setup) Data() (train, test, aux *dataset.Dataset) {
	opts := dataset.DefaultGenOptions()
	train = dataset.Generate(s.TrainSize, opts, rng.New(s.TrainDataSeed()))
	test = s.TestData()
	aux = dataset.Generate(s.AuxSize, opts, rng.New(dataSeed^0x617578)) // "aux"
	return train, test, aux
}

// Federation is the one mapping from a setup and a scenario onto the
// round engine's configuration: Run starts from it in-process, and a
// networked server puts it in fednet.Config.Experiment. The attack
// instance and what a single run overrides are the caller's to fill in.
func (s Setup) Federation(sc Scenario) fl.FederationConfig {
	return fl.FederationConfig{
		NumClients:        s.NumClients,
		PerRound:          s.PerRound,
		Rounds:            s.Rounds,
		Alpha:             s.Alpha,
		ServerLR:          s.ServerLR,
		MaliciousFraction: sc.MaliciousFraction,
		Client: fl.ClientConfig{
			Arch:       s.Arch,
			Train:      s.Train,
			CVAE:       s.CVAE,
			CVAETrain:  s.CVAETrain,
			NumClasses: 10,
		},
		TestSubset: s.TestSubset,
		Seed:       s.Seed,
	}
}
