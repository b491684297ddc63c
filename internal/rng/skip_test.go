package rng

import (
	"math"
	"testing"
)

// TestSkipNormFloat64 holds SkipNormFloat64(n) to the State n calls of
// NormFloat64 leave — the spent cache value State reports after an even
// count included — and to the same next draws, from an empty and a full
// Box–Muller cache. 783/784/785 straddle one image's noise draws.
func TestSkipNormFloat64(t *testing.T) {
	for _, full := range []bool{false, true} {
		for _, n := range []int{-1, 0, 1, 2, 3, 4, 783, 784, 785} {
			drawn, skipped := New(0x5eed), New(0x5eed)
			for _, r := range []*RNG{drawn, skipped} {
				r.Uint64()
				if full {
					r.NormFloat64()
				}
				if r.haveGauss != full {
					t.Fatalf("cache full = %v, want %v", r.haveGauss, full)
				}
			}
			for i := 0; i < n; i++ {
				drawn.NormFloat64()
			}
			skipped.SkipNormFloat64(n)
			ds, ss := drawn.State(), skipped.State()
			if math.Float64bits(ds.Gauss) != math.Float64bits(ss.Gauss) {
				t.Errorf("n=%d full=%v: cached variate %x, want %x", n, full,
					math.Float64bits(ss.Gauss), math.Float64bits(ds.Gauss))
			}
			if ds != ss {
				t.Errorf("n=%d full=%v: State %+v, want %+v", n, full, ss, ds)
			}
			for i := 0; i < 4; i++ {
				if g, w := skipped.NormFloat64(), drawn.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
					t.Errorf("n=%d full=%v: NormFloat64 #%d after skip = %v, want %v", n, full, i, g, w)
				}
			}
			for i := 0; i < 4; i++ {
				if g, w := skipped.Uint64(), drawn.Uint64(); g != w {
					t.Errorf("n=%d full=%v: Uint64 #%d after skip = %x, want %x", n, full, i, g, w)
				}
			}
		}
	}
}
