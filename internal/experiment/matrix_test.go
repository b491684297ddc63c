package experiment

import (
	"bytes"
	"strings"
	"sync"
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

func matrixTestCells() []Cell {
	return Grid(matrixTestSetup(),
		[]Scenario{mustScenario("sign-flip-50"), mustScenario("decoder-forge-30")},
		[]string{"FedAvg", "FedGuard", "Spectral"})
}

func mustScenario(id string) Scenario {
	sc, err := ScenarioByID(id)
	if err != nil {
		panic(err)
	}
	return sc
}

// matrixGolden is WriteMatrixCSV of matrixTestCells.
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
	cells := matrixTestCells()

	// The sweep's sink hears one event per cell, never a cell's rounds.
	sink := &kindSink{kinds: map[string]int{}}
	tel := telemetry.New(sink)
	run := func(workers int) string {
		results, err := RunMatrix(cells, MatrixOptions{Workers: workers, Telemetry: tel})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(results) != 6 {
			t.Fatalf("workers=%d: %d results, want 6", workers, len(results))
		}
		// Grid order: scenario-major, strategies inner.
		wantOrder := []string{
			"sign-flip-50/FedAvg", "sign-flip-50/FedGuard", "sign-flip-50/Spectral",
			"decoder-forge-30/FedAvg", "decoder-forge-30/FedGuard", "decoder-forge-30/Spectral",
		}
		for i, r := range results {
			if got := r.Scenario.ID + "/" + r.Strategy; got != wantOrder[i] {
				t.Fatalf("workers=%d: cell %d is %s, want %s", workers, i, got, wantOrder[i])
			}
			if mal, ben := r.MaliciousExclusionRate(), r.BenignExclusionRate(); mal < 0 || mal > 1 || ben < 0 || ben > 1 {
				t.Fatalf("workers=%d: cell %d has out-of-range exclusion rates %v, %v", workers, i, mal, ben)
			}
			if r.Strategy == "FedAvg" && r.Excluded() != 0 {
				t.Fatalf("workers=%d: FedAvg excluded %d updates", workers, r.Excluded())
			}
			if r.MaliciousSampled() == 0 {
				t.Fatalf("workers=%d: cell %d sampled no malicious clients", workers, i)
			}
		}
		var buf bytes.Buffer
		if err := WriteMatrixCSV(&buf, results); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	for _, workers := range []int{1, 3} {
		if csv := run(workers); csv != matrixGolden {
			t.Fatalf("workers=%d: CSV moved:\n--- got ---\n%s--- want ---\n%s", workers, csv, matrixGolden)
		}
	}
	if got := sink.kinds["MatrixCellCompleted"]; got != 12 {
		t.Fatalf("%d MatrixCellCompleted events, want 6 per sweep", got)
	}
	if len(sink.kinds) != 1 {
		t.Fatalf("the sweep's sink heard %v, want only the 12 cell events", sink.kinds)
	}
}

// kindSink counts the events it hears by kind.
type kindSink struct {
	mu    sync.Mutex
	kinds map[string]int
}

func (s *kindSink) Emit(e telemetry.Event) {
	s.mu.Lock()
	s.kinds[e.Kind()]++
	s.mu.Unlock()
}

func TestMatrixValidation(t *testing.T) {
	setup := matrixTestSetup()
	sf := []Scenario{mustScenario("sign-flip-50")}

	if _, err := RunMatrix(nil, MatrixOptions{}); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := RunMatrix(Grid(setup, sf, []string{"FedAvg", "Quantum"}), MatrixOptions{}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := RunMatrix(Grid(setup, []Scenario{{ID: "x", Attack: "quantum"}}, []string{"FedAvg"}), MatrixOptions{}); err == nil {
		t.Fatal("unknown attack accepted")
	}
}

// studySweep is one mixed cell list — a cell from each study fedbench
// sweeps — run once at two workers and shared by the study tests: a
// server-LR cell (Fig. 5), a t cell and an α cell (§VI ablations), an
// inner-operator cell, and the no-attack FedAvg/FedGuard pair Table V is
// rendered from.
var studySweep struct {
	once    sync.Once
	cells   []Cell
	results []*Result
	err     error
}

func studyResults(t *testing.T) ([]Cell, []*Result) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs six federations")
	}
	studySweep.once.Do(func() {
		s := MustSetup(PresetQuick)
		s.Rounds, s.LastN = 1, 1
		s.Samples = 20
		s.CVAETrain.Epochs = 2
		s.Train.Epochs = 1
		lr, few, skewed := s, s, s
		lr.ServerLR, few.Samples, skewed.Alpha = 0.3, 10, 0.5

		studySweep.cells = append([]Cell{
			{Setup: lr, Scenario: mustScenario("label-flip-40"), Strategy: "FedGuard", Label: "FedGuard-lr-0.3"},
			{Setup: few, Scenario: mustScenario("sign-flip-50"), Strategy: "FedGuard", Label: "FedGuard-t-10"},
			{Setup: skewed, Scenario: mustScenario("label-flip-30"), Strategy: "FedGuard", Label: "FedGuard-alpha-0.5"},
			{Setup: s, Scenario: mustScenario("sign-flip-50"), Strategy: "FedGuard-Median"},
		}, Grid(s, []Scenario{mustScenario("no-attack")}, []string{"FedAvg", "FedGuard"})...)
		studySweep.results, studySweep.err = RunMatrix(studySweep.cells, MatrixOptions{Workers: 2})
	})
	if studySweep.err != nil {
		t.Fatal(studySweep.err)
	}
	return studySweep.cells, studySweep.results
}

// TestMatrixStudies checks the mixed sweep returns one completed result
// per cell, in cell order, labelled by the cell.
func TestMatrixStudies(t *testing.T) {
	cells, results := studyResults(t)
	want := []string{"FedGuard-lr-0.3", "FedGuard-t-10", "FedGuard-alpha-0.5", "FedGuard-Median", "FedAvg", "FedGuard"}
	if len(results) != len(want) {
		t.Fatalf("%d results, want %d", len(results), len(want))
	}
	for i, r := range results {
		if r.Strategy != want[i] || r.Scenario != cells[i].Scenario {
			t.Fatalf("result %d is %s/%s, want %s/%s", i, r.Scenario.ID, r.Strategy, cells[i].Scenario.ID, want[i])
		}
		if len(r.History.Rounds) != 1 || r.Seconds <= 0 {
			t.Fatalf("%s: %d rounds in %vs", r.Strategy, len(r.History.Rounds), r.Seconds)
		}
	}
}

// TestFig5Runner checks the Fig. 5 server-LR cell on the sweep runner.
func TestFig5Runner(t *testing.T) {
	cells, results := studyResults(t)
	if cells[0].Setup.ServerLR != 0.3 {
		t.Fatalf("Fig. 5 cell runs at server LR %v", cells[0].Setup.ServerLR)
	}
	if r := results[0]; r.Strategy != "FedGuard-lr-0.3" || r.Scenario.ID != "label-flip-40" {
		t.Fatalf("Fig. 5 cell is %s/%s", r.Scenario.ID, r.Strategy)
	}
}

// TestAblationRunners checks the §VI ablation cells — t, α and the inner
// operator — on the sweep runner.
func TestAblationRunners(t *testing.T) {
	_, results := studyResults(t)
	for i, want := range []string{"sign-flip-50/FedGuard-t-10", "label-flip-30/FedGuard-alpha-0.5", "sign-flip-50/FedGuard-Median"} {
		if got := results[i+1].Scenario.ID + "/" + results[i+1].Strategy; got != want {
			t.Fatalf("ablation cell %d is %s, want %s", i, got, want)
		}
	}
	if _, err := ScenarioByID("not-a-scenario"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestOverheadRunner checks Table V as fedbench renders it: from the
// sweep's no-attack FedAvg/FedGuard pair.
func TestOverheadRunner(t *testing.T) {
	_, results := studyResults(t)
	// FedGuard's downloads carry the decoder payloads, uploads are
	// strategy-independent.
	avg, guard := results[4].History, results[5].History
	avgUp, avgDown := avg.MeanBytes()
	guardUp, guardDown := guard.MeanBytes()
	if guardDown <= avgDown {
		t.Fatalf("FedGuard downloads %d not above FedAvg %d (decoder payloads missing)", guardDown, avgDown)
	}
	if guardUp != avgUp {
		t.Fatalf("uploads differ: %d vs %d", guardUp, avgUp)
	}
	var buf bytes.Buffer
	if err := WriteTableV(&buf, results[4:]); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(buf.String()), "\n"); len(lines) != 4 ||
		!strings.HasPrefix(lines[3], "| FedGuard |") || !strings.Contains(lines[3], "%)") {
		t.Fatalf("Table V:\n%s", buf.String())
	}
}
