package aggregate

import (
	"encoding/binary"
	"math"
	"testing"

	"fedguard/internal/fl"
	"fedguard/internal/rng"
)

// hostileCohort decodes fuzz bytes into a round of 1–8 updates of
// dimension 1–64: per update an arbitrary NumSamples (zero, negative and
// huge included) and arbitrary float32 bit patterns, with a non-finite
// pattern's top exponent bit cleared. Those are the updates the round
// engine's admission lets through, which refuses NaN and ±Inf before any
// strategy sees them. Bytes past the end of data read as zero.
func hostileCohort(data []byte) []fl.Update {
	next := func(n int) []byte {
		b := make([]byte, n)
		data = data[copy(b, data):]
		return b
	}
	head := next(2)
	n, dim := 1+int(head[0]%8), 1+int(head[1]%64)
	updates := make([]fl.Update, n)
	for i := range updates {
		w := make([]float32, dim)
		for j := range w {
			bits := binary.LittleEndian.Uint32(next(4))
			if bits&0x7f800000 == 0x7f800000 {
				bits &^= 0x40000000
			}
			w[j] = math.Float32frombits(bits)
		}
		updates[i] = fl.Update{ClientID: i, NumSamples: int(int64(binary.LittleEndian.Uint64(next(8)))), Weights: w}
	}
	return updates
}

// FuzzAggregate runs every strategy in the package on hostile cohorts:
// each must return an error or a vector of the cohort's dimension whose
// values are all finite, and never panic.
func FuzzAggregate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	// Two updates at the float32 extremes: a median of an even cohort
	// halves their sum, which overflows float32.
	big := []byte{1, 0}
	for _, bits := range []uint32{0x7f7fffff, 0x7f7fffff} {
		big = binary.LittleEndian.AppendUint32(big, bits)
		big = binary.LittleEndian.AppendUint64(big, math.MaxInt64)
	}
	f.Add(big)
	strategies := []fl.Strategy{NewFedAvg(), NewGeoMed(), NewKrum(), NewMedian(), NewTrimmedMean(), NewNormClip()}
	f.Fuzz(func(t *testing.T, data []byte) {
		updates := hostileCohort(data)
		dim := len(updates[0].Weights)
		for _, s := range strategies {
			ctx := &fl.RoundContext{Round: 1, Global: make([]float32, dim), Updates: updates,
				RNG: rng.New(1), Report: map[string]float64{}}
			out, err := s.Aggregate(ctx)
			if err != nil {
				continue
			}
			if len(out) != dim {
				t.Fatalf("%s: %d values for dimension %d", s.Name(), len(out), dim)
			}
			for i, v := range out {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("%s: value %d is %v on %d updates", s.Name(), i, v, len(updates))
				}
			}
		}
	})
}
