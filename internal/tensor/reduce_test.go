package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randVec32(r *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	return v
}

// naiveDistSq is the reference serial left-to-right sum the blocked
// kernels should approximate (not match bitwise — the blocked order is
// canonical now).
func naiveDistSq(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// distSqBlocked returns the squared Euclidean distance between a and b in
// the canonical blocked order: distSqBlock over each coordinate block of
// ReduceBlock elements, summed in ascending order. It is the value
// PairwiseDistSq produces for the pair.
func distSqBlocked(a, b []float32) float64 {
	var total float64
	for lo := 0; lo < len(a); lo += ReduceBlock {
		hi := min(lo+ReduceBlock, len(a))
		total += distSqBlock(a[lo:hi], b[lo:hi])
	}
	return total
}

func TestDistSqBlockedMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 15, 16, 17, 100, ReduceBlock - 1, ReduceBlock, ReduceBlock + 5, 3*ReduceBlock + 7} {
		a, b := randVec32(r, n), randVec32(r, n)
		got := distSqBlocked(a, b)
		want := naiveDistSq(a, b)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("n=%d: distSqBlocked=%g, naive=%g", n, got, want)
		}
	}
}

// TestDistSqAVXMatchesGo pins the bit-identity contract between the
// assembly kernel and its pure-Go mirror. On builds without AVX both
// sides run the Go path and the test is vacuously true.
func TestDistSqAVXMatchesGo(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX on this build")
	}
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{16, 32, 48, 256, 2048} {
		a, b := randVec32(r, n), randVec32(r, n)
		asm := distSq16AVX(&a[0], &b[0], n)
		pure := distSq16Go(a, b)
		if asm != pure {
			t.Errorf("n=%d: distSq16AVX=%x, distSq16Go=%x (must be bit-identical)", n, asm, pure)
		}
		a64 := make([]float64, n)
		for i, v := range a {
			a64[i] = float64(v) * 1.5
		}
		masm := distSqMixed16AVX(&a64[0], &b[0], n)
		mpure := distSqMixed16Go(a64, b)
		if masm != mpure {
			t.Errorf("n=%d: distSqMixed16AVX=%x, distSqMixed16Go=%x", n, masm, mpure)
		}
	}
}

func TestPairwiseDistSqSymmetricAndDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n, dim = 9, 3*ReduceBlock + 13
	vecs := make([][]float32, n)
	for i := range vecs {
		vecs[i] = randVec32(r, dim)
	}
	ref := make([]float64, n*n)
	defer SetWorkers(Workers())
	for _, w := range []int{1, 4, 64} {
		SetWorkers(w)
		dst := make([]float64, n*n)
		PairwiseDistSq(dst, vecs)
		for i := 0; i < n; i++ {
			if dst[i*n+i] != 0 {
				t.Fatalf("workers=%d: diagonal [%d] = %g", w, i, dst[i*n+i])
			}
			for j := 0; j < n; j++ {
				if dst[i*n+j] != dst[j*n+i] {
					t.Fatalf("workers=%d: asymmetry at (%d,%d)", w, i, j)
				}
				if want := distSqBlocked(vecs[i], vecs[j]); i != j && dst[i*n+j] != want {
					t.Fatalf("workers=%d: (%d,%d) = %x, distSqBlocked = %x", w, i, j, dst[i*n+j], want)
				}
			}
		}
		if w == 1 {
			copy(ref, dst)
		} else {
			for k := range dst {
				if dst[k] != ref[k] {
					t.Fatalf("workers=%d: entry %d differs from workers=1 (must be bit-identical)", w, k)
				}
			}
		}
	}
}

func TestWeightedSumIntoDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	const m, dim = 7, ReduceBlock + 31
	rows := make([][]float32, m)
	for i := range rows {
		rows[i] = randVec32(r, dim)
	}
	w := make([]float64, m)
	for i := range w {
		w[i] = r.Float64() * 10
	}
	w[2] = 0 // zero weights must not be skipped
	ref := make([]float64, dim)
	defer SetWorkers(Workers())
	for _, workers := range []int{1, 4, 64} {
		SetWorkers(workers)
		dst := make([]float64, dim)
		WeightedSumInto(dst, rows, w)
		if workers == 1 {
			copy(ref, dst)
			// spot-check against a naive sum
			for _, i := range []int{0, dim / 2, dim - 1} {
				var want float64
				for j := range rows {
					want += w[j] * float64(rows[j][i])
				}
				if math.Abs(dst[i]-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("coord %d: got %g want %g", i, dst[i], want)
				}
			}
		} else {
			for i := range dst {
				if dst[i] != ref[i] {
					t.Fatalf("workers=%d: coord %d differs from workers=1", workers, i)
				}
			}
		}
	}
}

func TestSumSqAndMixedBlocked(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := randVec32(r, ReduceBlock+100)
	var want float64
	for _, v := range a {
		want += float64(v) * float64(v)
	}
	if got := SumSqBlocked(a); math.Abs(got-want) > 1e-9*(1+want) {
		t.Errorf("SumSqBlocked=%g want %g", got, want)
	}
	a64 := make([]float64, len(a))
	b := randVec32(r, len(a))
	for i, v := range a {
		a64[i] = float64(v)
	}
	if got, want := DistSqMixedBlocked(a64, b), distSqBlocked(a, b); math.Abs(got-want) > 1e-9*(1+want) {
		t.Errorf("DistSqMixedBlocked=%g, distSqBlocked=%g", got, want)
	}
}

func TestLerpScaleKernels(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	const dim = ReduceBlock + 9
	a, b := randVec32(r, dim), randVec32(r, dim)
	dst := make([]float32, dim)
	LerpInto(dst, a, b, 0.3)
	for i := range dst {
		if want := a[i] + 0.3*(b[i]-a[i]); dst[i] != want {
			t.Fatalf("LerpInto[%d] = %g want %g", i, dst[i], want)
		}
	}
	LerpInto(dst, dst, b, 0) // aliasing, t=0 keeps a
	src := make([]float64, dim)
	for i := range src {
		src[i] = float64(a[i]) * 2
	}
	ScaleF64To32(dst, src, 0.5)
	for i := range dst {
		if want := float32(src[i] * 0.5); dst[i] != want {
			t.Fatalf("ScaleF64To32[%d] = %g want %g", i, dst[i], want)
		}
	}
	out := make([]float32, dim)
	ScaleInto(out, a, 2)
	for i := range out {
		if want := a[i] * 2; out[i] != want {
			t.Fatalf("ScaleInto[%d] = %g want %g", i, out[i], want)
		}
	}
}

func TestDistSqManyInto(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const m, dim = 5, 1000
	rows := make([][]float32, m)
	for i := range rows {
		rows[i] = randVec32(r, dim)
	}
	cur := make([]float64, dim)
	for i := range cur {
		cur[i] = r.NormFloat64()
	}
	got := make([]float64, m)
	DistSqManyInto(got, cur, rows)
	for j := range rows {
		if want := DistSqMixedBlocked(cur, rows[j]); got[j] != want {
			t.Errorf("row %d: got %x want %x", j, got[j], want)
		}
	}
}

func BenchmarkDistSqBlocked(b *testing.B) {
	r := rand.New(rand.NewSource(8))
	const dim = 20490
	x, y := randVec32(r, dim), randVec32(r, dim)
	b.SetBytes(2 * 4 * dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = distSqBlocked(x, y)
	}
}
