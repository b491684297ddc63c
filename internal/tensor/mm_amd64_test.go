//go:build amd64 && !purego

package tensor

import (
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
