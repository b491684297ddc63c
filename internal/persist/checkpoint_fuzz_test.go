package persist

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"fedguard/internal/codec"
	"fedguard/internal/fl"
	"fedguard/internal/lebin"
	"fedguard/internal/rng"
)

// FuzzReadCheckpoint hammers readRoundFile, the round-file reader
// LoadCheckpoint runs first, with arbitrary bytes: it must return an
// error or a checkpoint — never panic, and never allocate far beyond the
// bytes supplied (lying length prefixes and lying element counts are the
// classic traps). Anything that decodes — its decoder references given
// payloads of the counts they declare — must survive a
// re-encode/re-decode round trip byte-exactly.
func FuzzReadCheckpoint(f *testing.F) {
	// Seed corpus: well-formed checkpoints of increasing shape…
	shapes := []*fl.Checkpoint{
		{Strategy: "FedAvg", Round: 1, Rounds: []fl.RoundRecord{{Round: 1, Report: map[string]float64{}}}},
		fullCheckpoint(),
	}
	for _, ck := range shapes {
		var buf bytes.Buffer
		if _, err := WriteCheckpoint(&buf, ck); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// …plus the hostile shapes: garbage, truncated header, oversized
	// length prefix, CRC-valid payload with a lying element count, and a
	// bit-flipped valid file.
	var valid bytes.Buffer
	if _, err := WriteCheckpoint(&valid, fullCheckpoint()); err != nil {
		f.Fatal(err)
	}
	flipped := append([]byte(nil), valid.Bytes()...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0x43, 0x47, 0x64})
	f.Add(valid.Bytes()[:17])
	huge := append([]byte(nil), valid.Bytes()[:16]...)
	binary.LittleEndian.PutUint32(huge[8:], 512<<20)
	f.Add(huge)
	lying := make([]byte, 0, 64)
	lying = lebin.AppendU64(lying, 1)
	lying = lebin.AppendU32(lying, 1)
	lying = lebin.AppendStr(lying, "s")
	lying = appendRNG(lying, rng.State{})
	lying = lebin.AppendU32(lying, 1<<27) // global count with no bytes behind it
	frame := make([]byte, 0, len(lying)+16)
	frame = lebin.AppendU32(frame, checkpointMagic)
	frame = lebin.AppendU32(frame, checkpointVersion)
	frame = lebin.AppendU32(frame, uint32(len(lying)))
	frame = lebin.AppendU32(frame, lebin.Checksum(0, lying))
	frame = append(frame, lying...)
	f.Add(frame)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 16 {
			// Keep claimed payload lengths within the input's ballpark so
			// every iteration stays cheap; huge hostile prefixes have their
			// own dedicated allocation-bound test.
			n := binary.LittleEndian.Uint32(data[8:12])
			if n > uint32(len(data))+64 && n <= maxCheckpointBytes {
				t.Skip()
			}
		}
		ck, lens, err := readRoundFile(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A reference is written with its payload's length: stand in
		// zeros, unless a count claims more than the input could hold.
		withPayloads := func(ck *fl.Checkpoint, lens []int) {
			for i, n := range lens {
				if n > len(data) {
					t.Skip()
				}
				ck.Decoders[i].Params = make([]float32, n)
			}
		}
		withPayloads(ck, lens)
		// Byte-level round-trip comparison sidesteps NaN payloads in
		// floats while still pinning every field.
		var first bytes.Buffer
		if _, err := WriteCheckpoint(&first, ck); err != nil {
			t.Fatalf("decoded checkpoint does not re-encode: %v", err)
		}
		again, lens, err := readRoundFile(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		withPayloads(again, lens)
		var second bytes.Buffer
		if _, err := WriteCheckpoint(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("re-encode is not a fixed point")
		}
	})
}

// FuzzLoadCheckpointDir hammers the directory reader: the fuzzer supplies
// the round file's bytes and the bytes of the one blob it references.
// LoadCheckpoint must return an error or a checkpoint — never panic,
// never allocate far beyond the two inputs (a blob header or a
// reference count may claim any length) — and a checkpoint it returns
// never carries a decoder other than the one its hash names.
func FuzzLoadCheckpointDir(f *testing.F) {
	const owner = 3
	params := []float32{1, 2, 3}
	ck := &fl.Checkpoint{Strategy: "FedGuard", Round: 1,
		Rounds:   []fl.RoundRecord{{Round: 1, Report: map[string]float64{}}},
		Decoders: []fl.DecoderState{{ID: owner, Hash: codec.Hash(params), Params: params}}}
	var round, blob bytes.Buffer
	if _, err := WriteCheckpoint(&round, ck); err != nil {
		f.Fatal(err)
	}
	if err := WriteWeights(&blob, params); err != nil {
		f.Fatal(err)
	}
	// The hash-valid / hash-invalid pair: the same blob with one float's
	// low bit flipped must be refused.
	f.Add(round.Bytes(), blob.Bytes())
	invalid := append([]byte(nil), blob.Bytes()...)
	invalid[len(invalid)-1] ^= 0x01
	f.Add(round.Bytes(), invalid)
	// A header claiming 1 GiB of floats on a 12-byte file, a short blob,
	// a missing one, and a garbage round file.
	var hostile []byte
	hostile = lebin.AppendU32(hostile, weightsMagic)
	hostile = lebin.AppendU32(hostile, weightsVersion)
	hostile = lebin.AppendU32(hostile, 1<<28)
	f.Add(round.Bytes(), hostile)
	f.Add(round.Bytes(), blob.Bytes()[:blob.Len()-2])
	f.Add(round.Bytes(), []byte{})
	f.Add([]byte{0x43, 0x47, 0x64, 0x46}, blob.Bytes())

	f.Fuzz(func(t *testing.T, roundFile, blobFile []byte) {
		if len(roundFile) >= 16 {
			// As in FuzzReadCheckpoint: huge claimed payloads have their
			// own allocation-bound test.
			n := binary.LittleEndian.Uint32(roundFile[8:12])
			if n > uint32(len(roundFile))+64 && n <= maxCheckpointBytes {
				t.Skip()
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(CheckpointPath(dir), roundFile, 0o644); err != nil {
			t.Fatal(err)
		}
		// The blob goes where the round file's first reference looks for
		// it, so mutated round files keep reaching the blob reader.
		name := blobName(owner, codec.Hash(params))
		if refs, _, err := readRoundFile(bytes.NewReader(roundFile)); err == nil && len(refs.Decoders) > 0 {
			name = blobName(refs.Decoders[0].ID, refs.Decoders[0].Hash)
		}
		if len(blobFile) > 0 {
			if err := os.WriteFile(filepath.Join(dir, name), blobFile, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		before := totalAllocBytes()
		got, err := LoadCheckpoint(dir)
		// Decoded structs are a few times larger than their encodings;
		// a claimed length honoured up front would be ≥ 1 GiB.
		if used, limit := totalAllocBytes()-before, int64(2*lebin.AllocChunk+64*(len(roundFile)+len(blobFile))+64<<10); used > limit {
			t.Fatalf("LoadCheckpoint allocated %d bytes on %d+%d input bytes", used, len(roundFile), len(blobFile))
		}
		if err != nil {
			return
		}
		for _, d := range got.Decoders {
			if len(d.Params) == 0 || codec.Hash(d.Params) != d.Hash {
				t.Fatalf("client %d's decoder does not hash to its reference", d.ID)
			}
		}
	})
}
