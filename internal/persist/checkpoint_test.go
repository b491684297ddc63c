package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fedguard/internal/codec"
	"fedguard/internal/fl"
	"fedguard/internal/lebin"
	"fedguard/internal/rng"
)

// fullCheckpoint exercises every field of the format: history with
// drops, wire bytes, reports and defense decisions (a kept and an
// excluded client, malicious both ways), decoders of different sizes, and
// client streams of a client with a decoder and one without, with an
// armed Gaussian cache.
func fullCheckpoint() *fl.Checkpoint {
	r := rng.New(42)
	r.NormFloat64() // arm the Box–Muller cache
	cached, trained := []float32{1, 2, 3}, []float32{0.125, -8}
	return &fl.Checkpoint{
		Round:     2,
		Seed:      99,
		Strategy:  "FedGuard",
		Global:    []float32{0.5, -1.25, 3e-9, 0},
		ServerRNG: r.State(),
		Rounds: []fl.RoundRecord{
			{
				Round: 1, TestAccuracy: 0.5, Seconds: 1.5,
				TrainSeconds: 1.0, AggregateSeconds: 0.25, EvalSeconds: 0.25,
				UploadBytes: 4096, DownloadBytes: 8192,
				WireUploadBytes: 1024, WireDownloadBytes: 2048,
				Sampled: []int{0, 2, 4}, MaliciousSampled: 1,
				Dropped:   []int{2},
				Threshold: 0.375,
				Decisions: []fl.Decision{
					{ClientID: 0, Score: 0.5, Kept: true, Malicious: true},
					{ClientID: 4, Score: 0.25},
				},
				Report: map[string]float64{fl.ReportKrumSelected: 1, "scored": 3},
			},
			{
				Round: 2, TestAccuracy: 0.625, Seconds: 1.25,
				UploadBytes: 4096, DownloadBytes: 8192,
				WireUploadBytes: 900, WireDownloadBytes: 1800,
				Sampled: []int{1, 3, 0}, MaliciousSampled: 0,
				Report: map[string]float64{},
			},
		},
		Decoders: []fl.DecoderState{
			{ID: 0, Hash: codec.Hash(trained), Params: trained},
			{ID: 3, Hash: codec.Hash(cached), Params: cached},
		},
		Clients: []fl.ClientState{
			{ID: 0, RNG: rng.New(7).State()},
			{ID: 1, RNG: rng.New(8).State()},
		},
	}
}

// refsOnly returns ck as its round file alone describes it: every
// decoder reference keeps its hash and loses its floats.
func refsOnly(ck *fl.Checkpoint) *fl.Checkpoint {
	out := *ck
	out.Decoders = append([]fl.DecoderState(nil), ck.Decoders...)
	for i := range out.Decoders {
		out.Decoders[i].Params = nil
	}
	return &out
}

func TestCheckpointRoundTrip(t *testing.T) {
	ck := fullCheckpoint()
	var buf bytes.Buffer
	n, err := WriteCheckpoint(&buf, ck)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteCheckpoint reported %d bytes, wrote %d", n, buf.Len())
	}
	got, _, err := readRoundFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The round file carries references; the floats are SaveCheckpoint's.
	if want := refsOnly(ck); !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestCheckpointBytesDeterministic(t *testing.T) {
	// Report maps must serialize in sorted key order, so two snapshots of
	// the same state are byte-identical.
	var a, b bytes.Buffer
	if _, err := WriteCheckpoint(&a, fullCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCheckpoint(&b, fullCheckpoint()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same checkpoint state produced different bytes")
	}
}

// TestCheckpointGoldenBytes pins the round file's byte-level format. If
// this fails, the change breaks every checkpoint on disk: either revert
// it or bump checkpointVersion, which makes readRoundFile refuse the
// older files by name.
func TestCheckpointGoldenBytes(t *testing.T) {
	ck := &fl.Checkpoint{
		Round:    1,
		Seed:     7,
		Strategy: "FedAvg",
		Global:   []float32{1, -2},
		ServerRNG: rng.State{
			Hi: 0x1111111111111111, Lo: 0x2222222222222222,
			IncHi: 0x3333333333333333, IncLo: 0x4444444444444445,
			HaveGauss: true, Gauss: 0.5,
		},
		Rounds: []fl.RoundRecord{{
			Round: 1, TestAccuracy: 0.25, Seconds: 2,
			TrainSeconds: 1, AggregateSeconds: 0.5, EvalSeconds: 0.5,
			UploadBytes: 16, DownloadBytes: 32,
			WireUploadBytes: 8, WireDownloadBytes: 16,
			Sampled: []int{1, 0}, MaliciousSampled: 1, Dropped: []int{0},
			Threshold: 0.5,
			Decisions: []fl.Decision{{ClientID: 1, Score: 0.25, Malicious: true}, {ClientID: 2, Score: 0.75, Kept: true}},
			Report:    map[string]float64{"x": 1},
		}},
		Decoders: []fl.DecoderState{{ID: 1, Hash: codec.Hash([]float32{3}), Params: []float32{3}}},
		Clients:  []fl.ClientState{{ID: 1, RNG: rng.State{Hi: 1, Lo: 2, IncHi: 3, IncLo: 5}}},
	}
	const want = "434764460500000031010000602affcc" + // header: magic, version 5, len, crc
		"0700000000000000" + // seed
		"01000000" + // round
		"06000000466564417667" + // strategy "FedAvg"
		"111111111111111122222222222222223333333333333333454444444444444401000000000000e03f" + // server rng
		"020000000000803f000000c0" + // global [1, -2]
		"01000000" + // 1 round record
		"01000000" + // record round
		"000000000000d03f" + "0000000000000040" + "000000000000f03f" + "000000000000e03f" + "000000000000e03f" + // acc, secs, train, agg, eval
		"1000000000000000" + "2000000000000000" + "0800000000000000" + "1000000000000000" + // byte columns
		"020000000100000000000000" + // sampled [1 0]
		"01000000" + // malicious sampled
		"0100000000000000" + // dropped [0]
		"000000000000e03f" + "02000000" + // threshold 0.5, 2 decisions
		"01000000" + "000000000000d03f" + "00" + "01" + // client 1 scored 0.25: excluded, malicious
		"02000000" + "000000000000e83f" + "01" + "00" + // client 2 scored 0.75: kept, benign
		"010000000100000078000000000000f03f" + // report {"x": 1}
		"01000000" + "01000000" + "dfb7c1b2b9bd63ef" + "01000000" + // decoders: 1 entry, id 1, hash of [3], 1 param
		"01000000" + "01000000" + // 1 client, id 1
		"010000000000000002000000000000000300000000000000050000000000000000" + "0000000000000000" // client rng
	var buf bytes.Buffer
	if _, err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	got := hex.EncodeToString(buf.Bytes())
	if got != want {
		t.Fatalf("checkpoint bytes changed:\n got %s\nwant %s", got, want)
	}
	// The pinned bytes must keep decoding to the same state.
	back, _, err := readRoundFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("golden checkpoint no longer decodes: %v", err)
	}
	if !reflect.DeepEqual(back, refsOnly(ck)) {
		t.Fatal("golden checkpoint decodes to different state")
	}
}

func encodeCheckpoint(t *testing.T, ck *fl.Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadCheckpointRejectsCorruption(t *testing.T) {
	valid := encodeCheckpoint(t, fullCheckpoint())

	t.Run("bad magic", func(t *testing.T) {
		data := append([]byte(nil), valid...)
		data[0] ^= 0xff
		if _, _, err := readRoundFile(bytes.NewReader(data)); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		// 1 is the retired inline-decoder format, 2 the one whose records
		// carry no decisions, 3 the one whose client entries carry two
		// dynamic-dataset counters and 4 the one whose client entries
		// carry their own decoder reference and classes: refused by name,
		// not migrated — no peer holds such a file.
		for _, version := range []uint32{1, 2, 3, 4, 99} {
			data := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint32(data[4:], version)
			_, _, err := readRoundFile(bytes.NewReader(data))
			want := fmt.Sprintf("unsupported checkpoint version %d", version)
			if err == nil || errors.Is(err, ErrCorruptCheckpoint) || !strings.Contains(err.Error(), want) {
				t.Fatalf("version %d: err = %v, want %q", version, err, want)
			}
		}
	})
	t.Run("decoder reference without payload", func(t *testing.T) {
		// CRC-valid, but a reference of count 0 names no blob to load.
		ck := fullCheckpoint()
		ck.Decoders[1].Params = nil
		data := encodeCheckpoint(t, ck)
		if _, _, err := readRoundFile(bytes.NewReader(data)); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
		}
	})
	t.Run("truncated at every boundary", func(t *testing.T) {
		for _, cut := range []int{0, 3, 15, 16, 20, len(valid) / 2, len(valid) - 1} {
			if _, _, err := readRoundFile(bytes.NewReader(valid[:cut])); !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("cut at %d: err = %v, want ErrCorruptCheckpoint", cut, err)
			}
		}
	})
	t.Run("flipped payload bit", func(t *testing.T) {
		for _, off := range []int{16, 30, len(valid) - 1} {
			data := append([]byte(nil), valid...)
			data[off] ^= 0x01
			if _, _, err := readRoundFile(bytes.NewReader(data)); !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("flip at %d: err = %v, want ErrCorruptCheckpoint", off, err)
			}
		}
	})
	t.Run("trailing garbage inside payload", func(t *testing.T) {
		// Extend the payload and fix up length+CRC so only the
		// trailing-bytes check can catch it.
		data := append(append([]byte(nil), valid...), 0xaa, 0xbb)
		payload := data[16:]
		binary.LittleEndian.PutUint32(data[8:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(data[12:], lebin.Checksum(0, payload))
		if _, _, err := readRoundFile(bytes.NewReader(data)); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
		}
	})
	t.Run("lying element count", func(t *testing.T) {
		// A CRC-valid payload whose global count claims more floats than
		// the payload holds must fail without allocating the claim.
		payload := make([]byte, 0, 64)
		payload = lebin.AppendU64(payload, 1)     // seed
		payload = lebin.AppendU32(payload, 1)     // round
		payload = lebin.AppendStr(payload, "s")   // strategy
		payload = appendRNG(payload, rng.State{}) // server rng
		payload = lebin.AppendU32(payload, 1<<28) // global count lie
		data := make([]byte, 0, len(payload)+16)
		data = lebin.AppendU32(data, checkpointMagic)
		data = lebin.AppendU32(data, checkpointVersion)
		data = lebin.AppendU32(data, uint32(len(payload)))
		data = lebin.AppendU32(data, lebin.Checksum(0, payload))
		data = append(data, payload...)
		before := totalAllocBytes()
		if _, _, err := readRoundFile(bytes.NewReader(data)); !errors.Is(err, ErrCorruptCheckpoint) {
			t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
		}
		if used := totalAllocBytes() - before; used > 1<<20 {
			t.Fatalf("lying count allocated %d bytes", used)
		}
	})
}

func TestReadCheckpointAllocBound(t *testing.T) {
	// Header claims a 256 MB payload over a near-empty body: the chunked
	// reader must fail after at most two growth chunks, not reserve the
	// claim up front.
	data := make([]byte, 0, 32)
	data = lebin.AppendU32(data, checkpointMagic)
	data = lebin.AppendU32(data, checkpointVersion)
	data = lebin.AppendU32(data, 256<<20)
	data = lebin.AppendU32(data, 0)
	data = append(data, make([]byte, 100)...)
	before := totalAllocBytes()
	if _, _, err := readRoundFile(bytes.NewReader(data)); err == nil {
		t.Fatal("lying length prefix accepted")
	}
	// Same slack policy as the wire framing's alloc-bound test.
	if limit := int64(2*lebin.AllocChunk + 64<<10); totalAllocBytes()-before > limit {
		t.Fatalf("claimed-256MB checkpoint allocated %d bytes; want ≤ %d", totalAllocBytes()-before, limit)
	}
}

func totalAllocBytes() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc)
}

func TestSaveLoadCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadCheckpoint(dir); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: err = %v, want ErrNoCheckpoint", err)
	}
	ck := fullCheckpoint()
	path, n, err := SaveCheckpoint(dir, ck)
	if err != nil {
		t.Fatal(err)
	}
	if path != CheckpointPath(dir) || n <= 16 {
		t.Fatalf("SaveCheckpoint returned (%q, %d)", path, n)
	}
	got, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Fatal("loaded checkpoint differs from saved")
	}
}

// TestSaveCheckpointCreatesDir pins the CLI contract: -checkpoint-dir
// may name a directory that does not exist yet (results/ckpt-run1) and
// the first write creates it.
func TestSaveCheckpointCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "ckpt")
	ck := fullCheckpoint()
	if _, _, err := SaveCheckpoint(dir, ck); err != nil {
		t.Fatalf("SaveCheckpoint into a missing directory: %v", err)
	}
	got, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Fatal("loaded checkpoint differs from saved")
	}
}

// TestSaveCheckpointAtomic simulates the two crash windows: a torn
// temporary file left behind by a crash mid-write must not disturb the
// previous checkpoint, and overwriting replaces it only wholesale.
func TestSaveCheckpointAtomic(t *testing.T) {
	dir := t.TempDir()
	first := fullCheckpoint()
	if _, _, err := SaveCheckpoint(dir, first); err != nil {
		t.Fatal(err)
	}

	// Crash mid-write of the NEXT checkpoint: a torn .tmp file exists.
	torn := encodeCheckpoint(t, fullCheckpoint())[:20]
	if err := os.WriteFile(CheckpointPath(dir)+".tmp", torn, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, first) {
		t.Fatal("torn temporary file disturbed the committed checkpoint")
	}

	// A completed save replaces it wholesale.
	second := fullCheckpoint()
	second.Round = 3
	second.Rounds = append(second.Rounds, fl.RoundRecord{Round: 3, Report: map[string]float64{}})
	if _, _, err := SaveCheckpoint(dir, second); err != nil {
		t.Fatal(err)
	}
	got, err = LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 3 || len(got.Rounds) != 3 {
		t.Fatalf("reloaded round = %d with %d records", got.Round, len(got.Rounds))
	}

	// A truncated committed file is rejected, not resumed from.
	full := encodeCheckpoint(t, second)
	if err := os.WriteFile(CheckpointPath(dir), full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(dir); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("truncated checkpoint: err = %v, want ErrCorruptCheckpoint", err)
	}
}
