package cvae

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"fedguard/internal/dataset"
	"fedguard/internal/rng"
)

// TestGoldenTrain pins one SmallConfig CVAE trained for three epochs on
// 100 samples at batch 32 — three full batches and a 4-row tail per
// epoch, losses evaluated only in the third — as the FNV-64a of the
// decoder payload and the bits of the loss Train returns. The constants
// were taken before the Adam kernel, the wide-N tiles, the first-layer
// input-gradient skip, the last-epoch-only loss and the step scratch
// existed, and `make ci` runs this test with and without `-tags purego`:
// none of them may move a bit.
func TestGoldenTrain(t *testing.T) {
	const (
		wantDecoder = uint64(0x414fea20fad71cba)
		wantLoss    = uint64(0x407c2a09a7f71d4f) // 450.62735744980904
	)
	r := rng.New(0x90de)
	train := dataset.Generate(100, dataset.DefaultGenOptions(), r)
	m := New(SmallConfig(), r)
	loss := m.Train(train, dataset.Range(train.Len()), TrainConfig{Epochs: 3, BatchSize: 32, LR: 1e-3}, r)

	if got := fnv64a(m.DecoderParams()); got != wantDecoder {
		t.Errorf("DecoderParams FNV-64a %#016x, want %#016x", got, wantDecoder)
	}
	if got := math.Float64bits(loss); got != wantLoss {
		t.Errorf("Train loss bits %#016x (%v), want %#016x", got, loss, wantLoss)
	}
}

// fnv64a hashes the little-endian bit patterns of v.
func fnv64a(v []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, f := range v {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(f))
		h.Write(b[:])
	}
	return h.Sum64()
}
