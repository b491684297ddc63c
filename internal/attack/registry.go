package attack

import (
	"fmt"

	"fedguard/internal/rng"
)

// registry is the one table of attack names, in report order: the
// experiment layer, the networked server and every remote client (from
// the name in its Setup message) resolve names through it.
var registry = []struct {
	name string
	make func(seed uint64) Attack
}{
	{"none", func(uint64) Attack { return None{} }},
	{"same-value", func(uint64) Attack { return NewSameValue() }},
	{"sign-flip", func(uint64) Attack { return NewSignFlip() }},
	// The noise stddev (0.5) is large relative to typical weight
	// magnitudes, matching the paper's devastating effect on FedAvg.
	{"additive-noise", func(seed uint64) Attack { return NewAdditiveNoise(0.5, seed) }},
	{"label-flip", func(uint64) Attack { return NewLabelFlip() }},
	{"scaled-boost", func(uint64) Attack { return NewScaledBoost(DefaultBoostLambda) }},
	{"alie", func(uint64) Attack { return NewALIE() }},
	{"ipm", func(uint64) Attack { return NewIPM() }},
	{"min-max", func(uint64) Attack { return NewMinMax("") }},
	{"decoder-forge", func(uint64) Attack { return NewDecoderForge() }},
}

// ByName builds a fresh instance of the named attack ("" is "none").
// seed pins the colluding additive-noise vector: instances built from
// the same seed draw the same noise, so per-client construction on
// remote nodes preserves the paper's collusion semantics.
func ByName(name string, seed uint64) (Attack, error) {
	if name == "" {
		name = "none"
	}
	for _, e := range registry {
		if e.name == name {
			return e.make(seed), nil
		}
	}
	return nil, fmt.Errorf("attack: unknown attack %q", name)
}

// CollusionSeed derives, from a run's experiment seed, the seed its
// attack instances are built with — in-process, on the networked server,
// and (carried by the Setup message) on every remote client.
func CollusionSeed(experimentSeed uint64) uint64 {
	return rng.DeriveSeed(experimentSeed, "noise", 0)
}
