package experiment

import (
	"bytes"
	"strings"
	"testing"

	"fedguard/internal/telemetry"
)

// matrixTestSetup shrinks the quick preset to the smallest federation
// that still exercises FedGuard's audit path, so a 2×3 matrix stays
// affordable under -race.
func matrixTestSetup() Setup {
	s := MustSetup(PresetQuick)
	s.TrainSize, s.TestSize, s.AuxSize = 600, 100, 100
	s.NumClients, s.PerRound, s.Rounds = 6, 4, 2
	s.Train.Epochs = 1
	s.CVAE.Hidden = 32
	s.CVAETrain.Epochs = 2
	s.Samples = 20
	s.LastN = 2
	s.TestSubset = 100
	return s
}

func matrixTestSpec() MatrixSpec {
	sf := mustScenario("sign-flip-50")
	df := mustScenario("decoder-forge-30")
	return MatrixSpec{
		Scenarios:  []Scenario{sf, df},
		Strategies: []string{"FedAvg", "FedGuard", "Spectral"},
	}
}

func mustScenario(id string) Scenario {
	sc, err := ScenarioByID(id)
	if err != nil {
		panic(err)
	}
	return sc
}

// matrixGolden is WriteMatrixCSV of matrixTestSpec over matrixTestSetup.
// The exclusion columns were pinned while they still came from an event
// join, so they hold the records' Decisions to that earlier instrument.
const matrixGolden = `scenario,attack,malicious_fraction,strategy,mean_accuracy,std_accuracy,final_accuracy,malicious_exclusion_rate,benign_exclusion_rate,excluded,malicious_sampled,err
sign-flip-50,sign-flip,0.50,FedAvg,0.100000,0.000000,0.100000,0.000000,0.000000,0,4,
sign-flip-50,sign-flip,0.50,FedGuard,0.140000,0.020000,0.160000,0.250000,0.500000,3,4,
sign-flip-50,sign-flip,0.50,Spectral,0.200000,0.080000,0.280000,0.500000,0.500000,4,4,
decoder-forge-30,decoder-forge,0.30,FedAvg,0.255000,0.035000,0.290000,0.000000,0.000000,0,4,
decoder-forge-30,decoder-forge,0.30,FedGuard,0.140000,0.020000,0.160000,0.750000,0.250000,4,4,
decoder-forge-30,decoder-forge,0.30,Spectral,0.215000,0.045000,0.260000,0.750000,0.250000,4,4,
`

// TestMatrixDeterministicAcrossWorkers is the CI smoke the adversary
// suite ships with: the same 2×3 grid at 1 and at 3 workers must render
// the pinned CSV byte for byte — cell results land at their grid index
// and contain no schedule-dependent numbers.
func TestMatrixDeterministicAcrossWorkers(t *testing.T) {
	setup := matrixTestSetup()
	spec := matrixTestSpec()

	// The setup's own telemetry is the sweep's too: cells must not write
	// their rounds into it.
	sink := &telemetry.CollectSink{}
	setup.Telemetry = telemetry.New(sink)
	run := func(workers int) string {
		cells, err := RunAttackMatrix(setup, spec, MatrixOptions{Workers: workers, Telemetry: setup.Telemetry})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(cells) != 6 {
			t.Fatalf("workers=%d: %d cells, want 6", workers, len(cells))
		}
		// Grid order: scenario-major, strategies inner.
		wantOrder := []string{
			"sign-flip-50/FedAvg", "sign-flip-50/FedGuard", "sign-flip-50/Spectral",
			"decoder-forge-30/FedAvg", "decoder-forge-30/FedGuard", "decoder-forge-30/Spectral",
		}
		for i, c := range cells {
			if got := c.Scenario.ID + "/" + c.Strategy; got != wantOrder[i] {
				t.Fatalf("workers=%d: cell %d is %s, want %s", workers, i, got, wantOrder[i])
			}
			if c.MaliciousExclusionRate < 0 || c.MaliciousExclusionRate > 1 ||
				c.BenignExclusionRate < 0 || c.BenignExclusionRate > 1 {
				t.Fatalf("workers=%d: cell %d has out-of-range exclusion rates: %+v", workers, i, c)
			}
			if c.Strategy == "FedAvg" && c.Excluded != 0 {
				t.Fatalf("workers=%d: FedAvg excluded %d updates", workers, c.Excluded)
			}
			if c.MaliciousSampled == 0 {
				t.Fatalf("workers=%d: cell %d sampled no malicious clients", workers, i)
			}
		}
		var buf bytes.Buffer
		if err := WriteMatrixCSV(&buf, cells); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	for _, workers := range []int{1, 3} {
		if csv := run(workers); csv != matrixGolden {
			t.Fatalf("workers=%d: CSV moved:\n--- got ---\n%s--- want ---\n%s", workers, csv, matrixGolden)
		}
	}
	if got := len(sink.ByKind("MatrixCellCompleted")); got != 12 {
		t.Fatalf("%d MatrixCellCompleted events, want 6 per sweep", got)
	}
	// The sweep's sink hears about cells, never about a cell's rounds.
	if got := len(sink.Events()); got != 12 {
		t.Fatalf("%d events on the sweep's sink, want only the 12 cell events", got)
	}
}

func TestMatrixValidation(t *testing.T) {
	setup := matrixTestSetup()
	ok := matrixTestSpec()

	if _, err := RunAttackMatrix(setup, MatrixSpec{}, MatrixOptions{}); err == nil {
		t.Fatal("empty grid accepted")
	}
	bad := ok
	bad.Strategies = []string{"FedAvg", "Quantum"}
	if _, err := RunAttackMatrix(setup, bad, MatrixOptions{}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	bad = ok
	bad.Scenarios = []Scenario{{ID: "x", Attack: "quantum"}}
	if _, err := RunAttackMatrix(setup, bad, MatrixOptions{}); err == nil {
		t.Fatal("unknown attack accepted")
	}
}

func TestFormatMatrixTablePivot(t *testing.T) {
	cells := []MatrixCell{
		{Scenario: Scenario{ID: "a"}, Strategy: "FedAvg", Mean: 0.5},
		{Scenario: Scenario{ID: "a"}, Strategy: "FedGuard", Mean: 0.8, Excluded: 3},
		{Scenario: Scenario{ID: "b"}, Strategy: "FedAvg", Mean: 0.4},
		{Scenario: Scenario{ID: "b"}, Strategy: "FedGuard", Err: "boom"},
	}
	out := FormatMatrixTable(cells)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("pivot too short:\n%s", out)
	}
	if !strings.Contains(lines[0], "FedAvg") || !strings.Contains(lines[0], "FedGuard") {
		t.Fatalf("header missing strategies:\n%s", out)
	}
	if !strings.Contains(out, "ERROR") {
		t.Fatalf("failed cell not marked:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Fatalf("excluding cell not starred:\n%s", out)
	}
}
