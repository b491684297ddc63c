// Quality sampling: the paper conclusion's "better sampling of quality
// candidates".
//
// Runs the same 50%-sign-flip federation twice under FedGuard: once with
// the standard uniform client sampler and once with a QualitySampler
// that biases selection away from clients the run's records show
// FedGuard has been excluding.
// Over the rounds, the malicious share of each sampled cohort drops well
// below 50% — the defense stops merely filtering attackers and starts
// avoiding them.
//
//	go run ./examples/quality_sampling
package main

import (
	"fmt"
	"log"

	"fedguard/internal/defense"
	"fedguard/internal/experiment"
	"fedguard/internal/fl"
)

func main() {
	setup := experiment.MustSetup(experiment.PresetQuick)
	setup.Rounds = 12

	run := func(useQuality bool) (history *fl.History, maliciousSampled []int) {
		att, err := experiment.NewAttack("sign-flip", setup.Seed)
		if err != nil {
			log.Fatal(err)
		}
		guard := defense.NewFedGuard(setup.Arch, setup.CVAE)
		guard.Samples = setup.Samples

		train, test, _ := setup.Data()
		cfg := fl.FederationConfig{
			NumClients: setup.NumClients, PerRound: setup.PerRound, Rounds: setup.Rounds,
			Alpha: setup.Alpha, ServerLR: 1,
			MaliciousFraction: 0.5, Attack: att,
			Client: fl.ClientConfig{
				Arch: setup.Arch, Train: setup.Train,
				CVAE: setup.CVAE, CVAETrain: setup.CVAETrain, NumClasses: 10,
			},
			TestSubset: setup.TestSubset,
			Seed:       setup.Seed,
		}
		if useQuality {
			cfg.Sampler = defense.NewQualitySampler()
		}
		fed, err := fl.NewFederation(train, test, cfg)
		if err != nil {
			log.Fatal(err)
		}
		h, err := fed.Run(guard, func(rec fl.RoundRecord) {
			maliciousSampled = append(maliciousSampled, rec.MaliciousSampled)
		})
		if err != nil {
			log.Fatal(err)
		}
		return h, maliciousSampled
	}

	fmt.Println("FedGuard vs 50% sign-flipping attackers, 12 rounds")
	fmt.Println()
	uh, um := run(false)
	qh, qm := run(true)

	fmt.Printf("%-7s %-28s %-28s\n", "round", "uniform sampler", "quality sampler")
	fmt.Printf("%-7s %-12s %-15s %-12s %-15s\n", "", "acc", "malicious/m", "acc", "malicious/m")
	for i := 0; i < setup.Rounds; i++ {
		fmt.Printf("%-7d %-12.3f %d/%-13d %-12.3f %d/%-13d\n",
			i+1,
			uh.Rounds[i].TestAccuracy, um[i], setup.PerRound,
			qh.Rounds[i].TestAccuracy, qm[i], setup.PerRound)
	}

	sum := func(xs []int) int {
		t := 0
		for _, x := range xs[len(xs)/2:] {
			t += x
		}
		return t
	}
	fmt.Printf("\nmalicious participations in the second half: uniform %d, quality %d\n",
		sum(um), sum(qm))
	fmt.Println("The quality sampler starves repeat offenders of participation slots,")
	fmt.Println("cutting wasted training and shrinking the attack surface per round.")
}
