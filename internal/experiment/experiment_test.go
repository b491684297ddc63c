package experiment

import (
	"bytes"
	"encoding/xml"
	"errors"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"fedguard/internal/dataset"
	"fedguard/internal/fl"
)

func TestNewSetupPresets(t *testing.T) {
	for _, p := range []Preset{PresetQuick, PresetDefault, PresetPaper} {
		s, err := NewSetup(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if s.NumClients <= 0 || s.Rounds <= 0 || s.Arch == nil {
			t.Fatalf("%s: incomplete setup %+v", p, s)
		}
		if s.PerRound > s.NumClients {
			t.Fatalf("%s: PerRound > NumClients", p)
		}
	}
	if _, err := NewSetup("bogus"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestPaperPresetMatchesPaper(t *testing.T) {
	s := MustSetup(PresetPaper)
	if s.NumClients != 100 || s.PerRound != 50 || s.Rounds != 50 {
		t.Fatalf("paper preset scale %d/%d/%d, want 100/50/50", s.NumClients, s.PerRound, s.Rounds)
	}
	if s.Alpha != 10 {
		t.Fatalf("paper alpha = %v, want 10", s.Alpha)
	}
	if s.Train.Epochs != 5 {
		t.Fatalf("paper local epochs = %d, want 5", s.Train.Epochs)
	}
	if s.CVAETrain.Epochs != 30 {
		t.Fatalf("paper CVAE epochs = %d, want 30", s.CVAETrain.Epochs)
	}
	if s.LastN != 40 {
		t.Fatalf("paper LastN = %d, want 40", s.LastN)
	}
}

func TestDataDeterministicAndDisjointStreams(t *testing.T) {
	s := MustSetup(PresetQuick)
	tr1, te1, aux1 := s.Data()
	tr2, te2, _ := s.Data()
	if tr1.Len() != s.TrainSize || te1.Len() != s.TestSize || aux1.Len() != s.AuxSize {
		t.Fatal("dataset sizes wrong")
	}
	for i := range tr1.X[:1000] {
		if tr1.X[i] != tr2.X[i] {
			t.Fatal("train data not deterministic")
		}
	}
	// Train and test must differ (separate streams).
	same := 0
	for i := 0; i < 1000; i++ {
		if tr1.X[i] == te2.X[i] {
			same++
		}
	}
	if same > 900 {
		t.Fatal("train and test streams look identical")
	}
}

// TestSeedMovesRunNotData: Setup.Seed is a run's one seed. Two Setups
// that differ only in Seed draw byte-identical data — so cells that
// differ only in Seed are repeats of one experiment — yet their runs end
// on different weights.
func TestSeedMovesRunNotData(t *testing.T) {
	at7 := MustSetup(PresetQuick)
	at7.Rounds, at7.Seed = 1, 7
	at11 := at7
	at11.Seed = 11
	if at7.TrainDataSeed() != at11.TrainDataSeed() {
		t.Fatalf("TrainDataSeed %x at seed 7, %x at seed 11", at7.TrainDataSeed(), at11.TrainDataSeed())
	}
	sameBits := func(a, b *dataset.Dataset) bool {
		return slices.Equal(a.Labels, b.Labels) && slices.EqualFunc(a.X, b.X, func(x, y float32) bool {
			return math.Float32bits(x) == math.Float32bits(y)
		})
	}
	tr7, te7, aux7 := at7.Data()
	tr11, te11, aux11 := at11.Data()
	for name, pair := range map[string][2]*dataset.Dataset{
		"train": {tr7, tr11}, "test": {te7, te11}, "aux": {aux7, aux11},
		"TestData": {at7.TestData(), at11.TestData()},
	} {
		if !sameBits(pair[0], pair[1]) {
			t.Errorf("%s data differs between seeds 7 and 11", name)
		}
	}
	sc, err := ScenarioByID("no-attack")
	if err != nil {
		t.Fatal(err)
	}
	r7, err := Run(at7, sc, "FedAvg", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r11, err := Run(at11, sc, "FedAvg", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(r7.History.FinalWeights, r11.History.FinalWeights) {
		t.Fatal("runs at seeds 7 and 11 end on the same weights")
	}
}

func TestScenarioRegistry(t *testing.T) {
	scs := Scenarios()
	if len(scs) != 11 {
		t.Fatalf("%d scenarios, want 11", len(scs))
	}
	ids := map[string]bool{}
	for _, sc := range scs {
		if ids[sc.ID] {
			t.Fatalf("duplicate scenario %q", sc.ID)
		}
		ids[sc.ID] = true
		if _, err := NewAttack(sc.Attack, 1); err != nil {
			t.Fatalf("scenario %s has unknown attack %q", sc.ID, sc.Attack)
		}
	}
	if _, err := ScenarioByID("sign-flip-50"); err != nil {
		t.Fatal(err)
	}
	if _, err := ScenarioByID("nope"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if got := len(TableIVScenarios()); got != 4 {
		t.Fatalf("TableIVScenarios = %d, want 4", got)
	}
	if got := len(MatrixScenarios()); got != 4 {
		t.Fatalf("MatrixScenarios = %d, want 4", got)
	}
	// Every scenario uses a registry name.
	for _, sc := range Scenarios() {
		if _, err := NewAttack(sc.Attack, 1); err != nil {
			t.Fatalf("scenario %s: %v", sc.ID, err)
		}
	}
}

func TestNewAttackUnknown(t *testing.T) {
	if _, err := NewAttack("quantum", 1); err == nil {
		t.Fatal("unknown attack accepted")
	}
}

func TestNewStrategyRegistry(t *testing.T) {
	setup := MustSetup(PresetQuick)
	for _, name := range StrategyNames() {
		s, err := NewStrategy(name, setup)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("strategy %q reports name %q", name, s.Name())
		}
	}
	if _, err := NewStrategy("wat", setup); err != nil {
		// expected
	} else {
		t.Fatal("unknown strategy accepted")
	}
	// Extended variants keep distinct names.
	g, err := NewStrategy("FedGuard-GeoMed", setup)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "FedGuard-GeoMed" {
		t.Fatalf("renamed strategy reports %q", g.Name())
	}
	if !g.NeedsDecoders() {
		t.Fatal("FedGuard-GeoMed must still need decoders")
	}
}

// TestFedGuardVariantsStream: every FedGuard variant is a streaming
// strategy, so the round engine audits its updates as they land rather
// than after the barrier.
func TestFedGuardVariantsStream(t *testing.T) {
	setup := MustSetup(PresetQuick)
	for _, name := range ExtendedStrategyNames() {
		if !strings.HasPrefix(name, "FedGuard") {
			continue
		}
		s, err := NewStrategy(name, setup)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.(fl.StreamingStrategy); !ok {
			t.Errorf("%s is not an fl.StreamingStrategy", name)
		}
	}
}

// TestRunQuickFedAvgBenign reads the shared benign FedAvg run: OnRound
// heard every round, and the run learned.
func TestRunQuickFedAvgBenign(t *testing.T) {
	rounds := MustSetup(PresetQuick).Rounds
	run := canonical(t, "FedAvg", "no-attack", rounds)
	if run.onRounds != rounds {
		t.Fatalf("saw %d rounds, want %d", run.onRounds, rounds)
	}
	if run.res.Mean() < 0.5 {
		t.Fatalf("benign FedAvg reached only %v mean accuracy", run.res.Mean())
	}
}

func TestRunServerLROverride(t *testing.T) {
	setup := MustSetup(PresetQuick)
	setup.Rounds = 2
	sc, _ := ScenarioByID("no-attack")
	setup.ServerLR = 0.3
	res, err := Run(setup, sc, "FedAvg", RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// With a damped server LR and 2 rounds the model can't converge as far
	// as with lr=1; just assert the run completed with sane stats.
	if len(res.History.Rounds) != 2 {
		t.Fatalf("%d rounds", len(res.History.Rounds))
	}
}

func TestWriteTableIV(t *testing.T) {
	guarded := fakeResult("sign-flip-50", "FedGuard", []float64{0.8, 0.9})
	guarded.History.Rounds[0].Decisions = []fl.Decision{{ClientID: 3, Kept: false}}
	res := []*Result{
		fakeResult("no-attack", "FedAvg", []float64{0.9, 0.95}),
		fakeResult("sign-flip-50", "FedAvg", []float64{0.1, 0.1}),
		fakeResult("no-attack", "FedGuard", []float64{0.9, 0.9}),
		guarded,
		{Scenario: Scenario{ID: "no-attack"}, Strategy: "Krum", History: &fl.History{}, Err: errors.New("boom")},
	}
	var buf bytes.Buffer
	if err := WriteTableIV(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"| Strategy | no-attack | sign-flip-50 |", "| FedAvg |",
		"| FedGuard | 90.00% ± 0.00% | 85.00% ± 5.00%* |", "| Krum | ERROR | — |", "\n* excluded updates"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table IV missing %q:\n%s", want, out)
		}
	}
}

// TestFormatMatrixTablePivot checks the markers the Table IV pivot puts
// on sweep cells: ERROR for a failed run, * only on a run that excluded
// updates.
func TestFormatMatrixTablePivot(t *testing.T) {
	guarded := fakeResult("b", "FedGuard", []float64{0.8})
	guarded.History.Rounds[0].Decisions = []fl.Decision{{ClientID: 3, Kept: false}}
	res := []*Result{
		fakeResult("a", "FedAvg", []float64{0.5}),
		fakeResult("a", "FedGuard", []float64{0.8}),
		fakeResult("b", "FedAvg", []float64{0.4}),
		guarded,
		{Scenario: Scenario{ID: "b"}, Strategy: "Krum", History: &fl.History{}, Err: errors.New("boom")},
	}
	var buf bytes.Buffer
	if err := WriteTableIV(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"| Strategy | a | b |", "| FedAvg | 50.00% ± 0.00% | 40.00% ± 0.00% |",
		"| FedGuard | 80.00% ± 0.00% | 80.00% ± 0.00%* |", "| Krum | — | ERROR |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table IV missing %q:\n%s", want, out)
		}
	}
}

// TestOverheadRows checks Table V's per-round MB columns: bytes to MiB,
// and the total as uploads plus downloads.
func TestOverheadRows(t *testing.T) {
	r := fakeResult("no-attack", "FedAvg", []float64{0.9})
	r.History.Rounds[0].UploadBytes = 2 << 20
	r.History.Rounds[0].DownloadBytes = 1 << 20
	r.History.Rounds[0].Seconds = 1.5
	var buf bytes.Buffer
	if err := WriteTableV(&buf, []*Result{r}); err != nil {
		t.Fatal(err)
	}
	if want := "| FedAvg | 2.0 MB | 1.0 MB | 3.0 MB | 1.50 s |"; !strings.Contains(buf.String(), want) {
		t.Fatalf("Table V missing %q:\n%s", want, buf.String())
	}
}

func TestWriteTableV(t *testing.T) {
	perRound := func(strategy string, up, down int64, seconds float64) *Result {
		r := fakeResult("no-attack", strategy, []float64{0.9})
		r.History.Rounds[0].UploadBytes, r.History.Rounds[0].DownloadBytes = up, down
		r.History.Rounds[0].Seconds = seconds
		return r
	}
	var buf bytes.Buffer
	if err := WriteTableV(&buf, []*Result{
		perRound("FedAvg", 100<<20, 100<<20, 2),
		perRound("FedGuard", 100<<20, 120<<20, 3.6),
	}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"| FedAvg | 100.0 MB | 100.0 MB | 200.0 MB | 2.00 s |",
		"| FedGuard | 100.0 MB | 120.0 MB (+20%) | 220.0 MB (+10%) | 3.60 s (+80%) |",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table V missing %q:\n%s", want, out)
		}
	}
}

// TestWriteSeriesCSV pins the series CSV of a ragged pair: one column
// per label in order, one row per round of the longest series, every
// accuracy at six decimals, and an empty cell where a series has ended.
func TestWriteSeriesCSV(t *testing.T) {
	res := []*Result{
		fakeResult("no-attack", "A", []float64{0.1, 0.2, 0.3}),
		fakeResult("no-attack", "B", []float64{0.4, 0.9}),
	}
	var buf bytes.Buffer
	err := WriteSeriesCSV(&buf, res, func(r *Result) string { return r.Strategy })
	if err != nil {
		t.Fatal(err)
	}
	const want = "round,A,B\n" +
		"1,0.100000,0.400000\n" +
		"2,0.200000,0.900000\n" +
		"3,0.300000,\n"
	if got := buf.String(); got != want {
		t.Fatalf("series CSV:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteASCIIChart(t *testing.T) {
	var buf bytes.Buffer
	WriteASCIIChart(&buf, []*Result{fakeResult("x", "Y", []float64{0, 0.5, 1})})
	if !strings.Contains(buf.String(), "x/Y") {
		t.Fatalf("chart missing label: %q", buf.String())
	}
}

func fakeResult(scenario, strategy string, accs []float64) *Result {
	h := &fl.History{Strategy: strategy}
	for i, a := range accs {
		h.Rounds = append(h.Rounds, fl.RoundRecord{Round: i + 1, TestAccuracy: a})
	}
	return &Result{
		Scenario: Scenario{ID: scenario},
		Strategy: strategy,
		History:  h,
		LastN:    len(accs),
	}
}

func TestWriteSVGChartWellFormed(t *testing.T) {
	res := []*Result{
		fakeResult("no-attack", "FedAvg", []float64{0.1, 0.5, 0.9}),
		fakeResult("no-attack", "FedGuard <odd&name>", []float64{0.2, 0.8}),
	}
	var buf bytes.Buffer
	if err := WriteSVGChart(&buf, res, `Fig 4 "test" & more`); err != nil {
		t.Fatal(err)
	}
	// The output must be valid XML (escaping has to work).
	dec := xml.NewDecoder(bytes.NewReader(buf.Bytes()))
	for {
		_, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("invalid XML: %v\n%s", err, buf.String())
		}
	}
	out := buf.String()
	if !strings.Contains(out, "<polyline") {
		t.Fatal("no series drawn")
	}
	if !strings.Contains(out, "FedGuard &lt;odd&amp;name&gt;") {
		t.Fatal("legend not escaped")
	}
}
