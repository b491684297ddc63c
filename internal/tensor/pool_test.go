package tensor

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"fedguard/internal/rng"
)

// holdSlots takes k compute slots for the rest of the test.
func holdSlots(t *testing.T, k int) {
	for range k {
		HoldSlot()
	}
	t.Cleanup(func() {
		for range k {
			ReleaseSlot()
		}
	})
}

// TestDispatchSplitsIntoFreeSlots pins the slot rule: with k of the
// Workers() slots held, a product above parallelThreshold runs in
// max(1, Workers() − max(k−1, 0)) row chunks — the caller's own slot
// and the free ones — and gives the same bits at every k.
func TestDispatchSplitsIntoFreeSlots(t *testing.T) {
	defer SetWorkers(Workers())
	const m, k, n = 48, 256, 128 // 1.5 M MACs: split by MatMul
	if m*k*n < parallelThreshold {
		t.Fatal("the product would not be split")
	}
	r := rng.New(0x51075)
	a, b := New(m, k), New(k, n)
	r.FillNormal(a.Data, 0, 1)
	r.FillNormal(b.Data, 0, 1)
	want := New(m, n)
	matmulRows(want.Data, a.Data, b.Data, 0, m, k, n, false)
	for _, width := range []int{1, 2, 3, 4} {
		for held := 0; held <= width+1; held++ {
			t.Run(fmt.Sprintf("width=%d/held=%d", width, held), func(t *testing.T) {
				SetWorkers(width)
				holdSlots(t, held)
				chunks := max(1, width-max(held-1, 0))

				var mu sync.Mutex
				var ranges [][2]int
				got := New(m, n)
				parallelRows(m, func(g kernelArgs, lo, hi int) {
					mu.Lock()
					ranges = append(ranges, [2]int{lo, hi})
					mu.Unlock()
					matmulKernel(g, lo, hi)
				}, kernelArgs{dst: got.Data, a: a.Data, b: b.Data, k: k, n: n})
				if len(ranges) != chunks {
					t.Fatalf("ran in %d chunks %v, the rule gives %d", len(ranges), ranges, chunks)
				}
				slices.SortFunc(ranges, func(x, y [2]int) int { return x[0] - y[0] })
				for i, rg := range ranges {
					if i > 0 && rg[0] != ranges[i-1][1] || rg[1] <= rg[0] {
						t.Fatalf("chunks %v do not tile [0, %d)", ranges, m)
					}
				}
				if ranges[0][0] != 0 || ranges[len(ranges)-1][1] != m {
					t.Fatalf("chunks %v do not tile [0, %d)", ranges, m)
				}
				requireBitEqual(t, "parallelRows", got, want)
				MatMul(got, a, b)
				requireBitEqual(t, "MatMul", got, want)
			})
		}
	}
}
