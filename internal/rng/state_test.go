package rng

import (
	"math"
	"testing"
)

// fromState builds a generator that continues the stream snapshotted
// in s.
func fromState(s State) *RNG {
	r := &RNG{}
	r.SetState(s)
	return r
}

// drainMixed exercises every consumer of generator state: raw words,
// bounded ints, floats, Gaussians (which toggle the Box–Muller cache),
// permutations, and a split.
func drainMixed(r *RNG) []float64 {
	out := make([]float64, 0, 64)
	for i := 0; i < 8; i++ {
		out = append(out, float64(r.Uint64()))
		out = append(out, float64(r.Intn(1000)))
		out = append(out, r.Float64())
		out = append(out, r.NormFloat64())
	}
	for _, v := range r.Perm(16) {
		out = append(out, float64(v))
	}
	child := r.Split()
	out = append(out, float64(child.Uint64()), float64(r.Uint64()))
	return out
}

func TestStateRoundTrip(t *testing.T) {
	src := New(42)
	// Burn mixed draws so the snapshot lands mid-stream.
	drainMixed(src)

	snap := src.State()
	restored := fromState(snap)
	want := drainMixed(src)
	got := drainMixed(restored)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("restored stream diverged at draw %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

func TestStateCapturesGaussCache(t *testing.T) {
	src := New(7)
	// One NormFloat64 leaves the second Box–Muller variate cached; a
	// snapshot that dropped it would restore a stream one Gaussian off.
	first := src.NormFloat64()
	_ = first
	snap := src.State()
	if !snap.HaveGauss {
		t.Fatal("snapshot after an odd Gaussian draw should carry the cached variate")
	}
	restored := fromState(snap)
	for i := 0; i < 10; i++ {
		a, b := src.NormFloat64(), restored.NormFloat64()
		if a != b || math.IsNaN(a) {
			t.Fatalf("Gaussian stream diverged at draw %d: %v vs %v", i, a, b)
		}
	}
}

func TestSetStateOverwrites(t *testing.T) {
	a := New(1)
	b := New(2)
	for i := 0; i < 17; i++ {
		a.Uint64()
	}
	b.SetState(a.State())
	for i := 0; i < 100; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("SetState target diverged at draw %d: %x vs %x", i, x, y)
		}
	}
}

func TestSetStateForcesOddIncrement(t *testing.T) {
	// A hostile checkpoint may carry an even stream selector; the PCG
	// increment must stay odd or the generator degenerates.
	r := fromState(State{Hi: 1, Lo: 2, IncHi: 3, IncLo: 4})
	if r.incLo&1 != 1 {
		t.Fatalf("incLo = %d, want odd", r.incLo)
	}
	// The stream must still be usable.
	r.Uint64()
	r.NormFloat64()
}

func TestStateMatchesClone(t *testing.T) {
	r := New(99)
	r.NormFloat64() // arm the cache
	viaClone := r.Clone()
	viaState := fromState(r.State())
	for i := 0; i < 100; i++ {
		if x, y := viaClone.Uint64(), viaState.Uint64(); x != y {
			t.Fatalf("State and Clone disagree at draw %d", i)
		}
	}
}
