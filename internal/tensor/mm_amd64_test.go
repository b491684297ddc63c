//go:build amd64 && !purego

package tensor

import (
	"math"
	"testing"

	"fedguard/internal/rng"
)

// TestZeroHeavy pins the wide-product dispatch rule on the densities the
// training loops produce: dense and half-zero left operands (weights,
// activations behind a ReLU) are not zero-heavy, one behind a ReLU and a
// 2×2 max pool (one live element in eight) is — in both addressings, on
// a row range that starts past row 0.
func TestZeroHeavy(t *testing.T) {
	r := rng.New(0x2e40)
	for _, s := range [][2]int{{32, 794}, {256, 32}, {16, 64}} {
		m, k := s[0], s[1]
		for _, tc := range []struct {
			zeroFrac float64
			want     bool
		}{{0, false}, {0.5, false}, {0.875, true}, {1, true}} {
			a, at := New(m, k), New(k, m)
			r.FillNormal(a.Data, 0, 1)
			for i := 0; i < m; i++ {
				for p := 0; p < k; p++ {
					if r.Float64() < tc.zeroFrac {
						a.Data[i*k+p] = 0
					}
					at.Data[p*m+i] = a.Data[i*k+p]
				}
			}
			lo := m / 4
			if got := zeroHeavy(a.Data, lo, m, k, 1, k); got != tc.want {
				t.Errorf("a@b %dx%d at %.3f zeros: zeroHeavy = %v, want %v", m, k, tc.zeroFrac, got, tc.want)
			}
			if got := zeroHeavy(at.Data, lo, m, 1, m, k); got != tc.want {
				t.Errorf("aᵀ@b %dx%d at %.3f zeros: zeroHeavy = %v, want %v", m, k, tc.zeroFrac, got, tc.want)
			}
		}
	}
}

// TestSigmoidKernelsStopAtFallbackLanes pins what the vector kernels
// write themselves: every whole group of in-range lanes, up to the first
// group holding a lane past the ±700 bound or a NaN, which they leave —
// so the sweep in TestSigmoidMatchesFormula grades vector lanes and not
// only the scalar formula.
func TestSigmoidKernelsStopAtFallbackLanes(t *testing.T) {
	if !useFMA {
		t.Skip("no sigmoid kernel: the CPU lacks AVX2 or FMA")
	}
	kernels := []struct {
		name  string
		lanes int
		run   func(dst, src []float32) int
	}{{"AVX", 4, sigmoidAVX}, {"AVX512", 8, sigmoidAVX512}}
	for _, k := range kernels {
		if k.lanes == 8 && !useAVX512 {
			continue
		}
		for _, bad := range []float32{700.00006, -700.00006, float32(math.NaN()), float32(math.Inf(-1))} {
			for at := range 19 {
				src, dst := make([]float32, 19), make([]float32, 19)
				for i := range src {
					src[i] = 700 - float32(i)*73.5
				}
				src[at] = bad
				if got, want := k.run(dst, src), at/k.lanes*k.lanes; got != want {
					t.Errorf("%s, %g at %d: wrote %d elements, want %d", k.name, bad, at, got, want)
				}
			}
		}
		src := []float32{700, -700, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
		if got, want := k.run(make([]float32, len(src)), src), len(src)/k.lanes*k.lanes; got != want {
			t.Errorf("%s over in-range lanes: wrote %d elements, want %d", k.name, got, want)
		}
	}
}
