// Dynamic datasets: the paper's §VI-C future-work scenario.
//
// Clients do not own a static partition; they start with 30% of their
// data and receive a fresh batch before every participation, retraining
// their CVAE every third appearance so the uploaded decoder tracks the
// evolving local distribution. The federation still faces 30%
// label-flipping attackers, and FedGuard still has to defend — now with
// decoders trained on partial, growing data.
//
//	go run ./examples/dynamic_stream
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
	setup.Rounds = 10

	att, err := experiment.NewAttack("label-flip", setup.Seed)
	if err != nil {
		log.Fatal(err)
	}
	guard := defense.NewFedGuard(setup.Arch, setup.CVAE)
	guard.Samples = setup.Samples
	guard.UseDecoderClasses = true // §VI-B routing: partial decoders only
	// synthesize classes they have seen

	train, test, _ := setup.Data()
	cfg := fl.FederationConfig{
		NumClients: setup.NumClients, PerRound: setup.PerRound, Rounds: setup.Rounds,
		Alpha: setup.Alpha, ServerLR: 1,
		MaliciousFraction: 0.3, Attack: att,
		Client: fl.ClientConfig{
			Arch: setup.Arch, Train: setup.Train,
			CVAE: setup.CVAE, CVAETrain: setup.CVAETrain, NumClasses: 10,
		},
		Stream: &fl.StreamConfig{
			InitialFraction:  0.3,
			PerRound:         20,
			CVAERetrainEvery: 3,
		},
		TestSubset: setup.TestSubset,
		Seed:       setup.Seed,
	}
	fed, err := fl.NewFederation(train, test, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("streaming federation: clients start with 30% of their data,")
	fmt.Println("gain 20 samples per appearance, retrain CVAEs every 3rd round;")
	fmt.Println("30% of clients flip labels 5<->7 and 4<->2.")
	fmt.Println()
	h, err := fed.Run(guard, func(rec fl.RoundRecord) {
		fmt.Printf("round %2d  acc %.3f  excluded %d/%d\n",
			rec.Round, rec.TestAccuracy, rec.Excluded(), len(rec.Sampled))
	})
	if err != nil {
		log.Fatal(err)
	}
	mean, std := h.LastNStats(5)
	fmt.Printf("\nfinal %.3f, last-5 mean %.3f ± %.3f\n", h.FinalAccuracy(), mean, std)
	fmt.Println("\nEven with decoders trained on partial, shifting data, selective")
	fmt.Println("aggregation keeps the label flippers out of the global model.")
}
