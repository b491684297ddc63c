package experiment

import (
	"fmt"

	"fedguard/internal/aggregate"
	"fedguard/internal/attack"
	"fedguard/internal/defense"
	"fedguard/internal/fl"
)

// Scenario is one attack configuration of the paper's §IV-B or of the
// extension adversary suite.
type Scenario struct {
	// ID is a stable slug ("sign-flip-50").
	ID string
	// Attack names the attack, as attack.ByName resolves it.
	Attack string
	// MaliciousFraction of the client population runs the attack.
	MaliciousFraction float64
	// Description summarizes the setting.
	Description string
}

// Scenarios returns the paper's five evaluation scenarios (Fig. 4 /
// Table IV), the Fig. 5 stress scenario, and the extension adversary
// suite: model replacement, the colluding ALIE/IPM attacks, the
// AGR-tailored min-max attack, and the decoder-forging adaptive attack
// against FedGuard.
func Scenarios() []Scenario {
	return []Scenario{
		{ID: "no-attack", Attack: "none", MaliciousFraction: 0,
			Description: "benign federation (Table IV baseline row)"},
		{ID: "additive-noise-50", Attack: "additive-noise", MaliciousFraction: 0.5,
			Description: "50% malicious peers adding a shared Gaussian noise"},
		{ID: "label-flip-30", Attack: "label-flip", MaliciousFraction: 0.3,
			Description: "30% malicious peers flipping labels 5<->7 and 4<->2"},
		{ID: "sign-flip-50", Attack: "sign-flip", MaliciousFraction: 0.5,
			Description: "50% malicious peers negating their updates"},
		{ID: "same-value-50", Attack: "same-value", MaliciousFraction: 0.5,
			Description: "50% malicious peers uploading all-ones updates"},
		{ID: "label-flip-40", Attack: "label-flip", MaliciousFraction: 0.4,
			Description: "40% malicious label flippers (Fig. 5 stress test)"},
		{ID: "scaled-boost-10", Attack: "scaled-boost", MaliciousFraction: 0.1,
			Description: "10% malicious peers boosting their deltas 10x (model replacement)"},
		{ID: "alie-30", Attack: "alie", MaliciousFraction: 0.3,
			Description: "30% colluders submitting mean - 1.5 std of their drafts (ALIE)"},
		{ID: "ipm-30", Attack: "ipm", MaliciousFraction: 0.3,
			Description: "30% colluders submitting the negated scaled cohort mean (IPM)"},
		{ID: "min-max-30", Attack: "min-max", MaliciousFraction: 0.3,
			Description: "30% colluders at the largest deviation surviving the aggregator (min-max)"},
		{ID: "decoder-forge-30", Attack: "decoder-forge", MaliciousFraction: 0.3,
			Description: "30% adaptive peers with clean CVAEs and targeted 5->7 classifiers"},
	}
}

// ScenarioByID returns the named scenario.
func ScenarioByID(id string) (Scenario, error) {
	for _, sc := range Scenarios() {
		if sc.ID == id {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("experiment: unknown scenario %q", id)
}

// TableIVScenarios returns the four attack columns of Table IV.
func TableIVScenarios() []Scenario {
	var out []Scenario
	for _, sc := range Scenarios() {
		switch sc.ID {
		case "additive-noise-50", "label-flip-30", "sign-flip-50", "same-value-50":
			out = append(out, sc)
		}
	}
	return out
}

// NewAttack instantiates the named attack from the attack registry for a
// run with the given experiment seed.
func NewAttack(name string, seed uint64) (attack.Attack, error) {
	return attack.ByName(name, attack.CollusionSeed(seed))
}

// MatrixScenarios returns the default attack×strategy sweep rows: one
// static attack and the three adaptive/colluding attacks, the grid the
// extension evaluation (README "Adversary suite") reports.
func MatrixScenarios() []Scenario {
	var out []Scenario
	for _, sc := range Scenarios() {
		switch sc.ID {
		case "sign-flip-50", "alie-30", "min-max-30", "decoder-forge-30":
			out = append(out, sc)
		}
	}
	return out
}

// StrategyNames lists the comparison set of Table IV in paper order.
func StrategyNames() []string {
	return []string{"FedAvg", "GeoMed", "Krum", "Spectral", "FedGuard"}
}

// ExtendedStrategyNames adds the related-work operators this repo also
// implements (usable from the CLI, not part of the paper's tables).
func ExtendedStrategyNames() []string {
	return append(StrategyNames(), "Median", "TrimmedMean", "NormClip",
		"FedGuard-GeoMed", "FedGuard-Median")
}

// NewStrategy instantiates the named strategy for the given setup.
// Spectral is pre-trained on the setup's auxiliary dataset (the paper
// grants it that, §II / §IV-C). The FedGuard-<op> variants exercise the
// §VI-C pluggable inner aggregation operator.
func NewStrategy(name string, setup Setup) (fl.Strategy, error) {
	switch name {
	case "FedAvg":
		return aggregate.NewFedAvg(), nil
	case "GeoMed":
		return aggregate.NewGeoMed(), nil
	case "Krum":
		return aggregate.NewKrum(), nil
	case "Median":
		return aggregate.NewMedian(), nil
	case "TrimmedMean":
		return aggregate.NewTrimmedMean(), nil
	case "NormClip":
		return aggregate.NewNormClip(), nil
	case "Spectral":
		s := NewPretrainedSpectral(setup)
		return s, nil
	case "FedGuard":
		return newFedGuard(setup, nil), nil
	case "FedGuard-GeoMed":
		g := newFedGuard(setup, aggregate.GeometricMedian)
		return renamed{g, "FedGuard-GeoMed"}, nil
	case "FedGuard-Median":
		g := newFedGuard(setup, aggregate.CoordinateMedian)
		return renamed{g, "FedGuard-Median"}, nil
	default:
		return nil, fmt.Errorf("experiment: unknown strategy %q", name)
	}
}

func newFedGuard(setup Setup, inner aggregate.Inner) *defense.FedGuard {
	g := defense.NewFedGuard(setup.Arch, setup.CVAE)
	g.Samples = setup.Samples
	g.Inner = inner
	return g
}

// NewPretrainedSpectral builds and pretrains the Spectral strategy on the
// setup's auxiliary dataset.
func NewPretrainedSpectral(setup Setup) *defense.Spectral {
	s := defense.NewSpectral(setup.Arch)
	_, _, aux := setup.Data()
	pcfg := defense.DefaultPretrainConfig(setup.Train)
	pcfg.Seed = setup.Seed ^ 0x5bec
	if err := s.Pretrain(aux, pcfg); err != nil {
		// Pretrain can only fail on empty aux data, which Setup rules out.
		panic(err)
	}
	return s
}

// renamed reports a FedGuard inner-operator variant under its own name.
// It embeds the concrete type, so the variant streams like FedGuard.
type renamed struct {
	*defense.FedGuard
	name string
}

func (r renamed) Name() string { return r.name }
