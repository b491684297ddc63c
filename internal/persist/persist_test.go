package persist

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"fedguard/internal/lebin"
	"fedguard/internal/rng"
)

func TestWeightsRoundTrip(t *testing.T) {
	r := rng.New(1)
	w := make([]float32, 1000)
	r.FillNormal(w, 0, 1)
	var buf bytes.Buffer
	if err := WriteWeights(&buf, w); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWeights(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(w) {
		t.Fatalf("read %d weights, want %d", len(got), len(w))
	}
	for i := range w {
		if got[i] != w[i] {
			t.Fatalf("weight %d: %v != %v", i, got[i], w[i])
		}
	}
}

func TestWeightsRoundTripSpecialValues(t *testing.T) {
	w := []float32{0, -0, 1, -1,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.MaxFloat32, math.SmallestNonzeroFloat32}
	var buf bytes.Buffer
	if err := WriteWeights(&buf, w); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWeights(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if math.Float32bits(got[i]) != math.Float32bits(w[i]) {
			t.Fatalf("bit pattern of weight %d changed", i)
		}
	}
}

func TestWeightsQuickRoundTrip(t *testing.T) {
	f := func(vals []float32) bool {
		var buf bytes.Buffer
		if err := WriteWeights(&buf, vals); err != nil {
			return false
		}
		got, err := ReadWeights(&buf)
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			// NaN payloads must survive bit-exactly too.
			if math.Float32bits(got[i]) != math.Float32bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadWeightsRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},
		{1, 2, 3},
		[]byte("this is not a weights file at all........"),
	}
	for i, c := range cases {
		if _, err := ReadWeights(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

func TestReadWeightsRejectsTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWeights(&buf, []float32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadWeights(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Fatal("truncated file accepted")
	}
}

func TestReadWeightsRejectsHugeCount(t *testing.T) {
	var buf bytes.Buffer
	// Hand-craft a header claiming 2^30 weights.
	for _, v := range []uint32{weightsMagic, weightsVersion, 1 << 30} {
		buf.WriteByte(byte(v))
		buf.WriteByte(byte(v >> 8))
		buf.WriteByte(byte(v >> 16))
		buf.WriteByte(byte(v >> 24))
	}
	if _, err := ReadWeights(&buf); err == nil {
		t.Fatal("implausible count accepted")
	}
}

// TestReadWeightsAllocBound: a 12-byte header may claim 1 GiB of floats
// over a near-empty body. The body is read in bounded chunks, so the
// claim costs at most one chunk before truncation is noticed — decoder
// blobs in a checkpoint directory are read through here on resume.
func TestReadWeightsAllocBound(t *testing.T) {
	var data []byte
	data = lebin.AppendU32(data, weightsMagic)
	data = lebin.AppendU32(data, weightsVersion)
	data = lebin.AppendU32(data, 1<<28)
	data = append(data, make([]byte, 100)...)
	before := totalAllocBytes()
	if _, err := ReadWeights(bytes.NewReader(data)); err == nil {
		t.Fatal("lying parameter count accepted")
	}
	// Same slack policy as TestReadCheckpointAllocBound.
	if limit := int64(2*lebin.AllocChunk + 64<<10); totalAllocBytes()-before > limit {
		t.Fatalf("claimed-1GiB weights file allocated %d bytes; want ≤ %d", totalAllocBytes()-before, limit)
	}
}

func TestSaveLoadWeightsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.fgw")
	w := []float32{1.5, -2.5, 3.5}
	if err := SaveWeights(path, w); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadWeights(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := range w {
		if got[i] != w[i] {
			t.Fatal("file round trip corrupted weights")
		}
	}
}
