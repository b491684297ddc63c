package tensor

import (
	"fmt"
	"math"
	"testing"
)

// sigmoidWant is Sigmoid's defining formula, kept apart from the
// package's scalar loop so the test does not grade the code by itself.
func sigmoidWant(v float32) float32 { return float32(1 / (1 + math.Exp(-float64(v)))) }

// sigmoidWidths runs f once per vector width this build and CPU have —
// 8 and 4 lanes on AVX-512, 4 on AVX2 with FMA, none otherwise (the
// scalar loop) — with the 8-lane kernel switched off for the narrower
// pass, as TestWideTileKernel does for the matmul tiles.
func sigmoidWidths(t *testing.T, f func(t *testing.T)) {
	wide := useAVX512
	defer func() { useAVX512 = wide }()
	widths := []bool{false}
	if wide {
		widths = []bool{true, false}
	}
	for _, w := range widths {
		useAVX512 = w
		t.Run(fmt.Sprintf("zmm=%v", w), f)
	}
}

// checkSigmoid runs Sigmoid over src and holds every element to the
// formula bit for bit, NaN payloads included.
func checkSigmoid(t *testing.T, src []float32) {
	t.Helper()
	dst := make([]float32, len(src)+1)
	const guard = 0x7fc0dead
	dst[len(src)] = math.Float32frombits(guard)
	Sigmoid(dst, src)
	bad := 0
	for i, v := range src {
		if got, want := math.Float32bits(dst[i]), math.Float32bits(sigmoidWant(v)); got != want {
			if bad < 5 {
				t.Errorf("element %d of %d: sigmoid(%g = %#08x) = %#08x, want %#08x",
					i, len(src), v, math.Float32bits(v), got, want)
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d elements differ from the formula", bad, len(src))
	}
	if math.Float32bits(dst[len(src)]) != guard {
		t.Fatal("Sigmoid wrote past len(src)")
	}
}

// sigmoidSpecials are the inputs at and around every branch of the
// scalar routine and of the vector lanes' bound: signed zeros,
// infinities, NaNs with and without payloads and of either sign,
// subnormals, the bound ±700 and its float32 neighbours, archExp's
// overflow and subnormal-result thresholds, and where float32 saturates.
func sigmoidSpecials() []float32 {
	bits := []uint32{
		0x00000000, 0x80000000, // ±0
		0x7f800000, 0xff800000, // ±Inf
		0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fbfffff, 0x7fc12345, 0xffd00bad, // NaNs
		0x00000001, 0x80000001, 0x007fffff, 0x807fffff, 0x00012345, // subnormals
		0x00800000, 0x80800000, 0x7f7fffff, 0xff7fffff, // smallest normal, largest finite
	}
	out := make([]float32, 0, 64)
	for _, b := range bits {
		out = append(out, math.Float32frombits(b))
	}
	for _, x := range []float32{700, 709.78, 745.2, 88.7, 103.9, 16.6, 1, 0.5} {
		up, down := math.Nextafter32(x, float32(math.Inf(1))), math.Nextafter32(x, 0)
		out = append(out, x, -x, up, -up, down, -down)
	}
	return out
}

// TestSigmoidMatchesFormula holds Sigmoid to float32(1/(1+e^-v)) bit for
// bit at every vector width: on a strided sweep of all 2³² float32 bit
// patterns, on the specials, with each special at every lane of a group
// beside in-range lanes (the fallback bound from both sides), and at
// every tail length 0–15 from unaligned starts.
func TestSigmoidMatchesFormula(t *testing.T) {
	const stride = 1021 // prime: the sweep meets every exponent and low mantissa bits
	sweep := make([]float32, 0, 1<<32/stride+1)
	for b := uint64(0); b < 1<<32; b += stride {
		sweep = append(sweep, math.Float32frombits(uint32(b)))
	}
	specials := sigmoidSpecials()
	sigmoidWidths(t, func(t *testing.T) {
		checkSigmoid(t, sweep)
		checkSigmoid(t, specials)
		for _, s := range specials {
			for lane := range 16 {
				src := make([]float32, 16)
				for i := range src {
					src[i] = float32(i)*0.37 - 3
				}
				src[lane] = s
				checkSigmoid(t, src)
			}
		}
		mixed := make([]float32, 64)
		for i := range mixed {
			mixed[i] = float32(i%40) - 20.5
		}
		for n := 0; n <= 15; n++ {
			for off := range 3 {
				checkSigmoid(t, mixed[off:off+n])
				checkSigmoid(t, specials[off:off+n])
			}
		}
	})
}
