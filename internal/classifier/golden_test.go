package classifier_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"fedguard/internal/classifier"
	"fedguard/internal/experiment"
)

// goldenSetup is the quick preset with the `small` convolutional
// classifier swapped in for the dense `tiny` one — so the narrow conv
// products (N = 8 and 16), the 25-wide filter gradient and the 10-wide
// output layer are all in the loop — and cut to two rounds and three
// CVAE epochs to keep a scalar (purego) run in seconds.
func goldenSetup() experiment.Setup {
	s := experiment.MustSetup(experiment.PresetQuick)
	s.Arch, s.ArchName = classifier.Small(), "small"
	s.Rounds, s.LastN = 2, 1
	s.CVAETrain.Epochs = 3
	return s
}

func weightsFNV64a(w []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range w {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestGoldenFinalWeights pins the final global weights of one FedAvg and
// one FedGuard federation as FNV-64a constants. The constants were taken
// before the register-tiled AVX kernels, the branch-free ReLU and pool
// and the restructured im2col existed, and `make ci` runs this test with
// and without `-tags purego`: every matmul path — tiles, row kernel,
// scalar — must land on the same bits, run after run, build after build.
func TestGoldenFinalWeights(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two small federations")
	}
	for _, tc := range []struct {
		strategy, scenario string
		want               uint64
	}{
		{"FedAvg", "no-attack", 0x3baa3f681af0f5df},
		{"FedGuard", "label-flip-30", 0x556894c7794e3ab2},
	} {
		sc, err := experiment.ScenarioByID(tc.scenario)
		if err != nil {
			t.Fatal(err)
		}
		res, err := experiment.Run(goldenSetup(), sc, tc.strategy, experiment.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := weightsFNV64a(res.History.FinalWeights); got != tc.want {
			t.Errorf("%s/%s: FinalWeights FNV-64a %#016x, want %#016x", tc.strategy, tc.scenario, got, tc.want)
		}
	}
}
