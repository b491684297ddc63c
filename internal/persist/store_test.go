package persist

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fedguard/internal/codec"
	"fedguard/internal/fl"
	"fedguard/internal/lebin"
	"fedguard/internal/rng"
)

// The checkpoint store's crash points are directory states, so these
// tests build the states directly: no processes killed, no sleeps.

func testDecoder(seed uint64, n int) []float32 {
	r := rng.New(seed)
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(r.NormFloat64())
	}
	return out
}

// networkedCheckpoint is the shape fednet.Server.Snapshot produces: the
// dedup cache with payloads, no client state.
func networkedCheckpoint(round, clients, decoderLen int) *fl.Checkpoint {
	ck := &fl.Checkpoint{Round: round, Seed: 5, Strategy: "FedGuard",
		Global: testDecoder(1000, 64), ServerRNG: rng.New(9).State()}
	for r := 1; r <= round; r++ {
		ck.Rounds = append(ck.Rounds, fl.RoundRecord{Round: r, Sampled: []int{0, 1}, Report: map[string]float64{}})
	}
	for id := 0; id < clients; id++ {
		p := testDecoder(uint64(id), decoderLen)
		ck.Decoders = append(ck.Decoders, fl.DecoderState{ID: id, Hash: codec.Hash(p), Params: p})
	}
	return ck
}

// inProcessCheckpoint is the shape fl's pool produces: every client's
// stream, and a decoder for every client but the last, which has not
// trained a CVAE yet. A client's stream has advanced one draw per round.
func inProcessCheckpoint(round, clients, decoderLen int) *fl.Checkpoint {
	ck := networkedCheckpoint(round, clients-1, decoderLen)
	for id := 0; id < clients; id++ {
		r := rng.New(uint64(100 + id))
		for range round {
			r.Uint64()
		}
		ck.Clients = append(ck.Clients, fl.ClientState{ID: id, RNG: r.State()})
	}
	return ck
}

func mustSave(t *testing.T, dir string, ck *fl.Checkpoint) int64 {
	t.Helper()
	_, n, err := SaveCheckpoint(dir, ck)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func mustLoadEqual(t *testing.T, dir string, want *fl.Checkpoint) {
	t.Helper()
	got, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded checkpoint differs from the one saved:\n got %+v\nwant %+v", got, want)
	}
}

// dirFiles lists dir's entries by name.
func dirFiles(t *testing.T, dir string) map[string]os.FileInfo {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]os.FileInfo, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = info
	}
	return out
}

func fileNames(files map[string]os.FileInfo) []string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func roundFileSize(t *testing.T, ck *fl.Checkpoint) int64 {
	t.Helper()
	return int64(len(encodeCheckpoint(t, ck)))
}

func blobPath(dir string, d fl.DecoderState) string {
	return filepath.Join(dir, blobName(d.ID, d.Hash))
}

// (a) A decoder is persisted once: the second save of an unchanged cohort
// writes the round file and nothing else, and allocates like it.
func TestSaveCheckpointSteadyState(t *testing.T) {
	dir := t.TempDir()
	ck := networkedCheckpoint(1, 4, 50_000)
	first := mustSave(t, dir, ck)
	if want := roundFileSize(t, ck) + 4*(weightsHeaderBytes+4*50_000); first != want {
		t.Fatalf("first save reported %d bytes, want round file + 4 blobs = %d", first, want)
	}
	before := dirFiles(t, dir)
	if len(before) != 5 {
		t.Fatalf("directory holds %v, want 4 blobs and the round file", fileNames(before))
	}

	ck.Round = 2
	ck.Rounds = append(ck.Rounds, fl.RoundRecord{Round: 2, Report: map[string]float64{}})
	alloc := totalAllocBytes()
	second := mustSave(t, dir, ck)
	alloc = totalAllocBytes() - alloc
	if want := roundFileSize(t, ck); second != want {
		t.Fatalf("steady-state save reported %d bytes, want the round file's %d", second, want)
	}
	// 800 KB of decoders are referenced; none may be re-serialised.
	if alloc > 64<<10 {
		t.Fatalf("steady-state save allocated %d bytes", alloc)
	}
	after := dirFiles(t, dir)
	for name, was := range before {
		if name == CheckpointFile {
			continue
		}
		now, ok := after[name]
		if !ok || !os.SameFile(was, now) || !was.ModTime().Equal(now.ModTime()) {
			t.Fatalf("blob %s was rewritten by a save that did not change it", name)
		}
	}
	mustLoadEqual(t, dir, ck)
}

// (b) A replaced decoder (a networked client that sends a new one) adds
// one blob and retires one.
func TestSaveCheckpointReplacesOneDecoder(t *testing.T) {
	dir := t.TempDir()
	ck := networkedCheckpoint(1, 3, 100)
	mustSave(t, dir, ck)
	before := dirFiles(t, dir)
	stale := blobName(1, ck.Decoders[1].Hash)

	p := testDecoder(77, 100)
	ck.Decoders[1] = fl.DecoderState{ID: 1, Hash: codec.Hash(p), Params: p}
	n := mustSave(t, dir, ck)
	if want := roundFileSize(t, ck) + weightsHeaderBytes + 4*100; n != want {
		t.Fatalf("save reported %d bytes, want round file + one blob = %d", n, want)
	}
	after := dirFiles(t, dir)
	if _, ok := after[stale]; ok {
		t.Fatalf("stale blob %s was not pruned", stale)
	}
	if _, ok := after[blobName(1, ck.Decoders[1].Hash)]; !ok || len(after) != len(before) {
		t.Fatalf("directory holds %v after replacing one decoder", fileNames(after))
	}
	for _, id := range []int{0, 2} {
		name := blobName(id, ck.Decoders[id].Hash)
		if !os.SameFile(before[name], after[name]) {
			t.Fatalf("untouched client %d's blob was rewritten", id)
		}
	}
	mustLoadEqual(t, dir, ck)
}

// (c) A crash after the new blobs landed but before the round-file
// rename: the old checkpoint loads intact, and the save that follows
// keeps everything it references.
func TestSaveCheckpointCrashBeforeRoundFile(t *testing.T) {
	dir := t.TempDir()
	old := networkedCheckpoint(1, 2, 100)
	mustSave(t, dir, old)

	next := networkedCheckpoint(2, 3, 100)
	retrained := testDecoder(55, 100)
	next.Decoders[0] = fl.DecoderState{ID: 0, Hash: codec.Hash(retrained), Params: retrained}
	for _, d := range []fl.DecoderState{next.Decoders[0], next.Decoders[2]} {
		if err := SaveWeights(blobPath(dir, d), d.Params); err != nil {
			t.Fatal(err)
		}
	}
	torn := encodeCheckpoint(t, next)
	if err := os.WriteFile(CheckpointPath(dir)+tmpSuffix, torn[:len(torn)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	mustLoadEqual(t, dir, old)

	// The resumed server re-runs round 2 and saves it.
	mustSave(t, dir, next)
	mustLoadEqual(t, dir, next)
	want := []string{CheckpointFile}
	for _, d := range next.Decoders {
		want = append(want, blobName(d.ID, d.Hash))
	}
	sort.Strings(want)
	if got := fileNames(dirFiles(t, dir)); !reflect.DeepEqual(got, want) {
		t.Fatalf("directory holds %v, want %v", got, want)
	}
}

// (d) A round file whose blob is gone, short, long, damaged or another
// client's is a corrupt checkpoint, whatever the damage.
func TestLoadCheckpointRejectsBadBlobs(t *testing.T) {
	ck := networkedCheckpoint(2, 3, 100)
	victim := ck.Decoders[1]
	damage := map[string]func(t *testing.T, dir string){
		"missing": func(t *testing.T, dir string) {
			if err := os.Remove(blobPath(dir, victim)); err != nil {
				t.Fatal(err)
			}
		},
		"truncated": func(t *testing.T, dir string) {
			if err := os.Truncate(blobPath(dir, victim), weightsHeaderBytes+4*100-1); err != nil {
				t.Fatal(err)
			}
		},
		"oversized": func(t *testing.T, dir string) {
			f, err := os.OpenFile(blobPath(dir, victim), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{0, 0, 0, 0})
			f.Close()
		},
		"one bit flipped": func(t *testing.T, dir string) {
			data, err := os.ReadFile(blobPath(dir, victim))
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x10
			if err := os.WriteFile(blobPath(dir, victim), data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"swapped with another client's": func(t *testing.T, dir string) {
			data, err := os.ReadFile(blobPath(dir, ck.Decoders[2]))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(blobPath(dir, victim), data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"lying header on a short file": func(t *testing.T, dir string) {
			var hostile []byte
			hostile = lebin.AppendU32(hostile, weightsMagic)
			hostile = lebin.AppendU32(hostile, weightsVersion)
			hostile = lebin.AppendU32(hostile, 1<<28)
			if err := os.WriteFile(blobPath(dir, victim), hostile, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, apply := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			mustSave(t, dir, ck)
			apply(t, dir)
			alloc := totalAllocBytes()
			_, err := LoadCheckpoint(dir)
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("err = %v, want ErrCorruptCheckpoint", err)
			}
			if alloc = totalAllocBytes() - alloc; alloc > 1<<20 {
				t.Fatalf("rejecting the blob allocated %d bytes", alloc)
			}
		})
	}
}

// (e) Temporaries of a crashed save are invisible to a load and removed
// by the next save; files this package did not create are left alone.
func TestSaveCheckpointRemovesStrayTemporaries(t *testing.T) {
	dir := t.TempDir()
	ck := networkedCheckpoint(1, 2, 100)
	mustSave(t, dir, ck)
	strays := []string{CheckpointFile + tmpSuffix, blobName(7, 0xabc) + tmpSuffix}
	foreign := []string{"history.json", "history.json.tmp"}
	for _, name := range append(append([]string(nil), strays...), foreign...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mustLoadEqual(t, dir, ck)
	mustSave(t, dir, ck)
	files := dirFiles(t, dir)
	for _, name := range strays {
		if _, ok := files[name]; ok {
			t.Fatalf("stray temporary %s survived a save", name)
		}
	}
	for _, name := range foreign {
		if _, ok := files[name]; !ok {
			t.Fatalf("save removed %s, which it did not create", name)
		}
	}
	mustLoadEqual(t, dir, ck)
}

// (f) A payload that does not hash to the value recorded for it is never
// written, nor is a decoder entry without a payload, and the failed save
// leaves the previous checkpoint loadable.
func TestSaveCheckpointRejectsHashMismatch(t *testing.T) {
	dir := t.TempDir()
	old := networkedCheckpoint(1, 2, 100)
	mustSave(t, dir, old)

	bad := networkedCheckpoint(2, 3, 100)
	bad.Decoders[2].Params = testDecoder(31, 100)
	if _, _, err := SaveCheckpoint(dir, bad); err == nil || !strings.Contains(err.Error(), "hashes to") {
		t.Fatalf("err = %v, want a hash mismatch", err)
	}
	mustLoadEqual(t, dir, old)

	inproc := inProcessCheckpoint(2, 3, 100)
	inproc.Decoders[0].Hash ^= 1
	if _, _, err := SaveCheckpoint(dir, inproc); err == nil {
		t.Fatal("client decoder saved under a hash it does not have")
	}
	mustLoadEqual(t, dir, old)

	hashOnly := networkedCheckpoint(2, 3, 100)
	hashOnly.Decoders[1].Params = nil
	if _, _, err := SaveCheckpoint(dir, hashOnly); err == nil || !strings.Contains(err.Error(), "no payload") {
		t.Fatalf("err = %v, want a decoder entry without payload refused", err)
	}
	mustLoadEqual(t, dir, old)
}

// (g) LoadCheckpoint(SaveCheckpoint(ck)) == ck for both transports'
// shapes, including clients that have no decoder yet and a checkpoint
// with no decoders at all.
func TestSaveLoadCheckpointShapes(t *testing.T) {
	shapes := map[string]*fl.Checkpoint{
		"networked":   networkedCheckpoint(3, 5, 333),
		"in-process":  inProcessCheckpoint(3, 5, 333),
		"no decoders": networkedCheckpoint(1, 0, 0),
		"every field": fullCheckpoint(),
	}
	for name, ck := range shapes {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			mustSave(t, dir, ck)
			mustLoadEqual(t, dir, ck)
		})
	}
}
