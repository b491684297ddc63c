// Networked federation: the paper's distributed deployment, in one
// process.
//
// Launches a federation server on a loopback TCP socket and one goroutine
// per client, each speaking the binary wire protocol — the same code
// paths cmd/fednode uses across machines. Every client regenerates its
// SynthDigits shard locally and derives its random stream from the shared
// experiment seed, so this run is bit-identical to the in-process
// simulator. The per-round traffic printed below is *measured* on the
// sockets, decoder payloads and frame overhead included (Table V's
// communication columns, observed rather than computed).
//
//	go run ./examples/networked
package main

import (
	"fmt"
	"log"
	"net"
	"sync"

	"fedguard/internal/experiment"
	"fedguard/internal/fednet"
	"fedguard/internal/fl"
)

func main() {
	setup := experiment.MustSetup(experiment.PresetQuick)
	setup.Rounds = 4
	sc, err := experiment.ScenarioByID("same-value-50")
	if err != nil {
		log.Fatal(err)
	}

	guard, err := experiment.NewStrategy("FedGuard", setup)
	if err != nil {
		log.Fatal(err)
	}

	// The federation shape and the data seeds come from the mapping
	// experiment.Run itself starts from, so this is fedsim's computation.
	cfg := fednet.Config{
		Experiment: setup.Federation(sc),
		AttackName: sc.Attack,
		ArchName:   setup.ArchName,
		DataSeed:   setup.TrainDataSeed(),
		TrainSize:  setup.TrainSize,
	}
	srv, err := fednet.NewServer(cfg, setup.TestData(), guard)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()

	fmt.Printf("server on %s; launching %d clients (%d malicious, %s attack)\n\n",
		ln.Addr(), cfg.Experiment.NumClients,
		int(cfg.Experiment.MaliciousFraction*float64(cfg.Experiment.NumClients)+0.5),
		cfg.AttackName)

	var wg sync.WaitGroup
	for id := 0; id < cfg.Experiment.NumClients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := fednet.RunClient(ln.Addr().String(), id, fednet.ClientOptions{}); err != nil {
				log.Printf("client %d: %v", id, err)
			}
		}(id)
	}

	h, err := srv.Run(ln, func(rec fl.RoundRecord) {
		fmt.Printf("round %d  acc=%.3f  wire: up %.2f MB, down %.2f MB  (%.1fs)\n",
			rec.Round, rec.TestAccuracy,
			float64(rec.UploadBytes)/(1<<20), float64(rec.DownloadBytes)/(1<<20),
			rec.Seconds)
	})
	if err != nil {
		log.Fatal(err)
	}
	wg.Wait()

	fmt.Printf("\nfinal accuracy %.3f with 50%% same-value attackers — over real sockets.\n",
		h.FinalAccuracy())
}
