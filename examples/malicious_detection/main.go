// Malicious peer detection: FedGuard's audit scores as a client-quality
// signal — the paper conclusion's "detection of defective sensors".
//
// Runs a federation with 40% label-flipping attackers and reads everything
// off the run's own records: each client's audit score round by round, its
// exclusion rate, and — since every decision carries its ground truth —
// the precision and recall of flagging clients excluded in most of their
// appearances.
//
//	go run ./examples/malicious_detection
package main

import (
	"fmt"
	"log"
	"sort"

	"fedguard/internal/experiment"
	"fedguard/internal/fl"
)

func main() {
	setup := experiment.MustSetup(experiment.PresetQuick)
	setup.Rounds = 10
	sc, err := experiment.ScenarioByID("label-flip-40")
	if err != nil {
		log.Fatal(err)
	}
	res, err := experiment.Run(setup, sc, "FedGuard", experiment.RunOptions{OnRound: func(rec fl.RoundRecord) {
		fmt.Printf("round %2d  acc %.3f  threshold %.3f  excluded %d/%d\n",
			rec.Round, rec.TestAccuracy, rec.Threshold, rec.Excluded(), len(rec.Decisions))
	}})
	if err != nil {
		log.Fatal(err)
	}
	rounds := res.History.Rounds

	excluded, seen := map[int]int{}, map[int]int{}
	for _, rec := range rounds {
		for _, d := range rec.Decisions {
			seen[d.ClientID]++
			if !d.Kept {
				excluded[d.ClientID]++
			}
		}
	}
	rate := func(id int) float64 { return float64(excluded[id]) / float64(seen[id]) }
	var ids []int
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		return rate(ids[i]) > rate(ids[j]) || rate(ids[i]) == rate(ids[j]) && ids[i] < ids[j]
	})

	fmt.Println("\naudit score by round (* = excluded, blank = not sampled), ranked by exclusion rate:")
	confusion := map[[2]bool]int{} // [flagged, malicious] -> clients
	for _, id := range ids {
		malicious := false
		fmt.Printf("  %2d ", id)
		for _, rec := range rounds {
			cell := "      "
			for _, d := range rec.Decisions {
				if d.ClientID == id {
					mark := map[bool]string{true: " ", false: "*"}[d.Kept]
					cell, malicious = fmt.Sprintf(" %.2f%s", d.Score, mark), d.Malicious
				}
			}
			fmt.Print(cell)
		}
		fmt.Printf("  excl %3.0f%%  malicious %v\n", 100*rate(id), malicious)
		confusion[[2]bool{rate(id) > 0.5, malicious}]++
	}
	tp, fp, fn := confusion[[2]bool{true, true}], confusion[[2]bool{true, false}], confusion[[2]bool{false, true}]
	fmt.Printf("\nflagging clients excluded in >50%% of appearances: precision %.2f, recall %.2f\n",
		float64(tp)/float64(max(tp+fp, 1)), float64(tp)/float64(max(tp+fn, 1)))
}
