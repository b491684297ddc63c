package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimesSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Name: "run", Start: 0, End: 10, Parent: -1},
		{Name: "phase", Start: 1, End: 9, Parent: 0},
		// Two overlapping children and one that sticks out of the parent:
		// they cover [2,6] and [8,9] of the phase.
		{Name: "a", Start: 2, End: 5, Parent: 1},
		{Name: "b", Start: 4, End: 6, Parent: 1},
		{Name: "c", Start: 8, End: 12, Parent: 1},
	}
	self := selfTimes(spans)
	want := []float64{2, 3, 3, 2, 4}
	for i := range want {
		if !near(self[i], want[i]) {
			t.Errorf("self[%s] = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestWallSharesSplitParallelLeavesAndSumToRun(t *testing.T) {
	spans := []span{
		{Name: "run", Start: 0, End: 10, Parent: -1},
		{Name: "phase", Start: 0, End: 8, Parent: 0},
		{Name: "client", Start: 0, End: 4, Parent: 1},
		{Name: "client", Start: 2, End: 6, Parent: 1},
		{Name: "upload", Start: 5, End: 6, Parent: 1},
	}
	shares := wallShares(spans)
	// client: [0,2] alone, [2,4] two clients, [4,5] alone, [5,6] half with
	// upload; phase is a leaf on [6,8]; the run on [8,10].
	want := map[string]float64{"client": 5.5, "upload": 0.5, "phase": 2, "run": 2}
	var total float64
	for name, w := range want {
		if !near(shares[name], w) {
			t.Errorf("share[%s] = %v, want %v", name, shares[name], w)
		}
	}
	for _, s := range shares {
		total += s
	}
	if !near(total, 10) {
		t.Errorf("shares add up to %v, want the run's 10", total)
	}
}

func TestAdoptPicksSmallestContainingSpan(t *testing.T) {
	tree := []span{
		{Name: "run", Start: 0, End: 10, Parent: -1},
		{Name: "round", Start: 1, End: 9, Parent: 0},
		{Name: "train", Start: 1, End: 6, Parent: 1},
		{Name: "aggregate", Start: 6, End: 8, Parent: 1},
	}
	loose := []span{
		{Name: "submit", Start: 2, End: 3},
		{Name: "finalize", Start: 6.5, End: 7.5},
		{Name: "checkpoint", Start: 9.2, End: 9.8},
	}
	got := adopt(tree, loose)
	for i, want := range []int{2, 3, 0} {
		if p := got[len(tree)+i].Parent; p != want {
			t.Errorf("%s adopted by %d, want %d", loose[i].Name, p, want)
		}
	}
}
