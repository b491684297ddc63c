package persist

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fedguard/internal/codec"
	"fedguard/internal/fl"
	"fedguard/internal/lebin"
	"fedguard/internal/rng"
)

// A checkpoint is a directory: one round file plus one write-once blob
// per decoder payload the round file references.
//
//	checkpoint.fgc                  what a round changes (ψ, history, streams)
//	dec-<clientID>-<hash:016x>.fgw  one decoder payload, FdGW weights format
//
// A client trains its CVAE once (paper footnote 5), so its decoder is
// uploaded once and persisted once; every later round rewrites only the
// round file. Round file format, version 5, everything little-endian:
//
//	[4B magic "FdGC"][4B version][4B payload length][4B CRC-32C(payload)]
//	payload:
//	  u64 seed · u32 round · str strategy · rng server stream
//	  u32 n · n×f32 global
//	  u32 n · n×record history rounds
//	  u32 n · n×entry decoders (id, ref)
//	  u32 n · n×entry client streams (id, rng)
//
// where str is u32 length + bytes, rng is 4×u64 + u8 + f64, ref is a
// decoder reference — u64 content hash + u32 parameter count, never the
// floats, and never 0: every reference names a blob — and map entries
// are written in sorted key order: checkpoint bytes are a pure function
// of the run state, which is what makes golden pins possible. The CRC guards the whole payload: a
// torn or bit-flipped round file is rejected as corrupt rather than
// resumed from. A blob is guarded by the hash in its own name, which is
// codec.Hash of its floats and must equal the referencing hash.
//
// Version 3 added the round's defense decisions to a record, ahead of
// its report — f64 threshold, u32 n, n × (u32 client, f64 score, u8 kept,
// u8 malicious) — because a sampler that reads the history must find
// them after a resume. Version 4 dropped a client's two u32 counters
// (visible samples, participations since its CVAE trained), which only a
// dynamic-dataset mode that retrained the CVAE ever moved. Version 5
// holds every decoder in the one decoder table, on both transports: a
// client entry lost its decoder reference and its decoder's classes
// (derived again from the client's data view on resume), and a
// reference of count 0, which version 4 admitted as a hash-only dedup
// entry, is corrupt. A networked round file, whose client table is
// empty, kept version 4's payload byte for byte.
//
// Blobs are keyed per client on purpose. codec.Hash is FNV-1a over
// 64-bit words, so a second preimage is one solved word; in a shared
// namespace a Byzantine client could park garbage under an honest
// client's hash for the next resume to pick up. The server's dedup cache
// is per client for the same reason.
const (
	checkpointMagic   = 0x46644743 // "FdGC"
	checkpointVersion = 5
	headerBytes       = 16
	// maxCheckpointBytes guards corrupt headers. Real round files are a
	// few MB even at the paper's 100-client scale (ψ plus R round
	// records; 6.7 MB at N = 100, R = 50) because decoder payloads live
	// in blobs — inline, as version 1 had them, the same state was 132 MB.
	maxCheckpointBytes = 1 << 30
)

// CheckpointFile is the round file's name inside a checkpoint directory.
const CheckpointFile = "checkpoint.fgc"

const (
	blobPrefix = "dec-"
	blobSuffix = ".fgw"
	tmpSuffix  = ".tmp"
)

// ErrNoCheckpoint reports that the checkpoint directory holds no
// checkpoint yet — the caller should start the run fresh.
var ErrNoCheckpoint = errors.New("persist: no checkpoint")

// ErrCorruptCheckpoint reports a checkpoint that failed structural, CRC
// or blob-hash validation. A resume must not proceed from such a
// directory.
var ErrCorruptCheckpoint = errors.New("persist: corrupt checkpoint")

// WriteCheckpoint serializes a checkpoint's round file to w and returns
// the number of bytes written (header included). Decoder payloads are
// written as references only; SaveCheckpoint stores the floats.
func WriteCheckpoint(w io.Writer, ck *fl.Checkpoint) (int64, error) {
	// The hint covers everything but long reports and sample lists, so
	// the buffer is allocated once for any realistic round file.
	hint := 256 + len(ck.Strategy) + 4*len(ck.Global) + 256*len(ck.Rounds) +
		16*len(ck.Decoders) + 48*len(ck.Clients)
	for i := range ck.Rounds {
		hint += 14 * len(ck.Rounds[i].Decisions)
	}
	b := appendCheckpoint(make([]byte, headerBytes, headerBytes+hint), ck)
	payload := b[headerBytes:]
	if len(payload) > maxCheckpointBytes {
		return 0, fmt.Errorf("persist: checkpoint payload %d bytes exceeds %d", len(payload), maxCheckpointBytes)
	}
	// Appending to the empty prefix fills the reserved header in place.
	h := lebin.AppendU32(lebin.AppendU32(b[:0], checkpointMagic), checkpointVersion)
	lebin.AppendU32(lebin.AppendU32(h, uint32(len(payload))), lebin.Checksum(0, payload))
	if _, err := w.Write(b); err != nil {
		return 0, fmt.Errorf("persist: writing checkpoint: %w", err)
	}
	return int64(len(b)), nil
}

// readRoundFile deserializes a round file written by WriteCheckpoint,
// verifying the CRC before decoding. Decoder payloads come back as
// references (hash set, floats nil), their parameter counts returned
// beside them, one per Checkpoint.Decoders entry; LoadCheckpoint
// resolves them. Corruption of any kind — bad magic, truncation,
// flipped bits, trailing garbage, implausible lengths, a reference of
// count 0 — returns an error wrapping
// ErrCorruptCheckpoint (except a valid header of another version, which
// is its own error).
func readRoundFile(r io.Reader) (*fl.Checkpoint, []int, error) {
	head, err := lebin.ReadFull(r, headerBytes)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: reading header: %v", ErrCorruptCheckpoint, err)
	}
	h := lebin.NewReader(head)
	if magic := h.U32(); magic != checkpointMagic {
		return nil, nil, fmt.Errorf("%w: bad magic %#x", ErrCorruptCheckpoint, magic)
	}
	if version := h.U32(); version != checkpointVersion {
		return nil, nil, fmt.Errorf("persist: unsupported checkpoint version %d", version)
	}
	n, wantCRC := h.U32(), h.U32()
	if n > maxCheckpointBytes {
		return nil, nil, fmt.Errorf("%w: implausible payload length %d", ErrCorruptCheckpoint, n)
	}
	payload, err := lebin.ReadFull(r, int(n))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: reading payload: %v", ErrCorruptCheckpoint, err)
	}
	if got := lebin.Checksum(0, payload); got != wantCRC {
		return nil, nil, fmt.Errorf("%w: CRC mismatch (got %#x, want %#x)", ErrCorruptCheckpoint, got, wantCRC)
	}
	d := lebin.NewReader(payload)
	ck, lens := readCheckpoint(d)
	if err := d.End(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	for i, n := range lens {
		if n == 0 {
			return nil, nil, fmt.Errorf("%w: client %d's decoder reference names no payload", ErrCorruptCheckpoint, ck.Decoders[i].ID)
		}
	}
	return ck, lens, nil
}

// CheckpointPath returns the round file SaveCheckpoint writes inside dir.
func CheckpointPath(dir string) string { return filepath.Join(dir, CheckpointFile) }

// blobName is the file a client's decoder payload with the given content
// hash lives in.
func blobName(clientID int, hash uint64) string {
	return fmt.Sprintf("%s%d-%016x%s", blobPrefix, clientID, hash, blobSuffix)
}

// SaveCheckpoint persists a checkpoint into dir and returns the round
// file's path and the bytes this call wrote. Every decoder payload whose
// blob is not in dir yet is written first (temporary file, fsync,
// rename; its name is codec.Hash of the floats being written, which
// must equal the hash the checkpoint records for it), then the round
// file the same way, then blobs and temporaries the new round file does
// not reference are removed. A blob only ever appears by rename after
// its fsync, so a name in the directory listing is the whole "already
// saved" test: a steady-state round rewrites the round file and nothing
// else. A crash at any point leaves either the old checkpoint or the
// new one fully intact — the old round file's blobs are pruned only
// once the new round file is in place — never a torn file or a decoder
// other than the one its hash names that LoadCheckpoint would accept.
func SaveCheckpoint(dir string, ck *fl.Checkpoint) (path string, bytes int64, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	// present maps every name in dir to whether this checkpoint
	// references it.
	present, err := listDir(dir)
	if err != nil {
		return "", 0, err
	}
	for i := range ck.Decoders {
		d := &ck.Decoders[i]
		if len(d.Params) == 0 {
			return "", 0, fmt.Errorf("persist: client %d decoder entry has no payload", d.ID)
		}
		name := blobName(d.ID, d.Hash)
		if _, ok := present[name]; !ok {
			if got := codec.Hash(d.Params); got != d.Hash {
				return "", 0, fmt.Errorf("persist: client %d decoder hashes to %016x, checkpoint records %016x", d.ID, got, d.Hash)
			}
			if err := SaveWeights(filepath.Join(dir, name), d.Params); err != nil {
				return "", 0, err
			}
			bytes += weightsHeaderBytes + 4*int64(len(d.Params))
		}
		present[name] = true
	}
	if bytes > 0 {
		// The blob renames must be durable before a round file that
		// references them is.
		syncDir(dir)
	}
	path = CheckpointPath(dir)
	var n int64
	// The fsync inside atomicWrite is the crash-safety linchpin: without
	// it the rename can land before the data, and a power cut leaves a
	// valid-looking name over empty blocks.
	if err := atomicWrite(path, func(f *os.File) (werr error) {
		n, werr = WriteCheckpoint(f, ck)
		return werr
	}); err != nil {
		return "", 0, err
	}
	syncDir(dir)
	// Pruning is housekeeping: a leftover file is retried by the next
	// save and never read by a load.
	for name, referenced := range present {
		if !referenced && prunable(name) {
			os.Remove(filepath.Join(dir, name))
		}
	}
	return path, bytes + n, nil
}

// listDir returns dir's entry names, each mapped to false.
func listDir(dir string) (map[string]bool, error) {
	d, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	names, err := d.Readdirnames(-1)
	if err != nil {
		return nil, err
	}
	present := make(map[string]bool, len(names))
	for _, name := range names {
		present[name] = false
	}
	return present, nil
}

// prunable reports whether name is a file only SaveCheckpoint creates
// and may therefore delete once unreferenced: a decoder blob (a
// networked client that sends a new decoder leaves a stale one) or a
// temporary of a blob or of the round file (crashed saves leave them).
// Anything else in the directory is not ours to remove.
func prunable(name string) bool {
	if name == CheckpointFile+tmpSuffix {
		return true
	}
	name = strings.TrimSuffix(name, tmpSuffix)
	return strings.HasPrefix(name, blobPrefix) && strings.HasSuffix(name, blobSuffix)
}

// syncDir best-effort fsyncs a directory so a just-completed rename is
// durable. Errors are ignored: some filesystems reject directory syncs,
// and the rename's atomicity does not depend on it.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// LoadCheckpoint reads dir's round file and every decoder blob it
// references. A directory with no round file returns ErrNoCheckpoint
// (distinguishing "fresh start" from "broken state"); a round file that
// fails validation, or a referenced blob that is missing, of the wrong
// size, or whose floats do not hash to the reference, is
// ErrCorruptCheckpoint. Files the round file does not reference —
// temporaries and blobs of a save that crashed before its rename — are
// ignored.
func LoadCheckpoint(dir string) (*fl.Checkpoint, error) {
	f, err := os.Open(CheckpointPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNoCheckpoint
	}
	if err != nil {
		return nil, err
	}
	ck, lens, err := readRoundFile(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	for i := range ck.Decoders {
		d := &ck.Decoders[i]
		if d.Params, err = loadBlob(dir, d.ID, d.Hash, lens[i]); err != nil {
			return nil, err
		}
	}
	return ck, nil
}

// loadBlob reads the n-parameter decoder payload a round file references.
// n comes from a CRC-checked round file but is still untrusted: the
// file's size must agree with it before anything is read, so no
// allocation exceeds the bytes on disk.
func loadBlob(dir string, clientID int, hash uint64, n int) ([]float32, error) {
	name := blobName(clientID, hash)
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		return nil, fmt.Errorf("%w: decoder blob: %v", ErrCorruptCheckpoint, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("%w: decoder blob: %v", ErrCorruptCheckpoint, err)
	}
	if want := weightsHeaderBytes + 4*int64(n); st.Size() != want {
		return nil, fmt.Errorf("%w: decoder blob %s is %d bytes, want %d", ErrCorruptCheckpoint, name, st.Size(), want)
	}
	params, err := ReadWeights(f)
	if err != nil {
		return nil, fmt.Errorf("%w: decoder blob %s: %v", ErrCorruptCheckpoint, name, err)
	}
	if len(params) != n {
		return nil, fmt.Errorf("%w: decoder blob %s holds %d params, want %d", ErrCorruptCheckpoint, name, len(params), n)
	}
	if got := codec.Hash(params); got != hash {
		return nil, fmt.Errorf("%w: decoder blob %s hashes to %016x", ErrCorruptCheckpoint, name, got)
	}
	return params, nil
}

// --- payload layout ---

func appendRNG(b []byte, s rng.State) []byte {
	b = lebin.AppendU64(b, s.Hi)
	b = lebin.AppendU64(b, s.Lo)
	b = lebin.AppendU64(b, s.IncHi)
	b = lebin.AppendU64(b, s.IncLo)
	b = lebin.AppendBool(b, s.HaveGauss)
	return lebin.AppendF64(b, s.Gauss)
}

func appendRecord(b []byte, rec *fl.RoundRecord) []byte {
	b = lebin.AppendU32(b, uint32(rec.Round))
	b = lebin.AppendF64(b, rec.TestAccuracy)
	b = lebin.AppendF64(b, rec.Seconds)
	b = lebin.AppendF64(b, rec.TrainSeconds)
	b = lebin.AppendF64(b, rec.AggregateSeconds)
	b = lebin.AppendF64(b, rec.EvalSeconds)
	b = lebin.AppendU64(b, uint64(rec.UploadBytes))
	b = lebin.AppendU64(b, uint64(rec.DownloadBytes))
	b = lebin.AppendU64(b, uint64(rec.WireUploadBytes))
	b = lebin.AppendU64(b, uint64(rec.WireDownloadBytes))
	b = lebin.AppendInts(b, rec.Sampled)
	b = lebin.AppendU32(b, uint32(rec.MaliciousSampled))
	b = lebin.AppendInts(b, rec.Dropped)
	b = lebin.AppendF64(b, rec.Threshold)
	b = lebin.AppendU32(b, uint32(len(rec.Decisions)))
	for _, d := range rec.Decisions {
		b = lebin.AppendU32(b, uint32(d.ClientID))
		b = lebin.AppendF64(b, d.Score)
		b = lebin.AppendBool(b, d.Kept)
		b = lebin.AppendBool(b, d.Malicious)
	}
	keys := make([]string, 0, len(rec.Report))
	for k := range rec.Report {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = lebin.AppendU32(b, uint32(len(keys)))
	for _, k := range keys {
		b = lebin.AppendStr(b, k)
		b = lebin.AppendF64(b, rec.Report[k])
	}
	return b
}

// appendCheckpoint writes the payload. A decoder reference is the
// payload's content hash and its length, never its floats.
func appendCheckpoint(b []byte, ck *fl.Checkpoint) []byte {
	b = lebin.AppendU64(b, ck.Seed)
	b = lebin.AppendU32(b, uint32(ck.Round))
	b = lebin.AppendStr(b, ck.Strategy)
	b = appendRNG(b, ck.ServerRNG)
	b = lebin.AppendF32s(b, ck.Global)
	b = lebin.AppendU32(b, uint32(len(ck.Rounds)))
	for i := range ck.Rounds {
		b = appendRecord(b, &ck.Rounds[i])
	}
	b = lebin.AppendU32(b, uint32(len(ck.Decoders)))
	for i := range ck.Decoders {
		d := &ck.Decoders[i]
		b = lebin.AppendU32(b, uint32(d.ID))
		b = lebin.AppendU64(b, d.Hash)
		b = lebin.AppendU32(b, uint32(len(d.Params)))
	}
	b = lebin.AppendU32(b, uint32(len(ck.Clients)))
	for i := range ck.Clients {
		c := &ck.Clients[i]
		b = lebin.AppendU32(b, uint32(c.ID))
		b = appendRNG(b, c.RNG)
	}
	return b
}

func readRNG(d *lebin.Reader) rng.State {
	return rng.State{Hi: d.U64(), Lo: d.U64(), IncHi: d.U64(), IncLo: d.U64(), HaveGauss: d.Bool(), Gauss: d.F64()}
}

func readRecord(d *lebin.Reader) fl.RoundRecord {
	rec := fl.RoundRecord{
		Round:             int(d.U32()),
		TestAccuracy:      d.F64(),
		Seconds:           d.F64(),
		TrainSeconds:      d.F64(),
		AggregateSeconds:  d.F64(),
		EvalSeconds:       d.F64(),
		UploadBytes:       int64(d.U64()),
		DownloadBytes:     int64(d.U64()),
		WireUploadBytes:   int64(d.U64()),
		WireDownloadBytes: int64(d.U64()),
		Sampled:           d.Ints(),
		MaliciousSampled:  int(d.U32()),
		Dropped:           d.Ints(),
		Threshold:         d.F64(),
	}
	if n := d.Count(14); n > 0 { // decision: client(4) + score(8) + kept(1) + malicious(1)
		rec.Decisions = make([]fl.Decision, n)
		for i := range rec.Decisions {
			rec.Decisions[i] = fl.Decision{ClientID: int(int32(d.U32())), Score: d.F64(), Kept: d.Bool(), Malicious: d.Bool()}
		}
	}
	n := d.Count(12) // min per entry: empty key (4) + f64 (8)
	// Always non-nil: live records carry the round context's (possibly
	// empty) report map, and restored history must compare equal to it.
	rec.Report = make(map[string]float64, n)
	for i := 0; i < n && d.Len() > 0; i++ {
		k := d.Str()
		rec.Report[k] = d.F64()
	}
	return rec
}

// readCheckpoint decodes the payload, returning decoder references'
// parameter counts beside it. Counts are bounded by the smallest legal
// encoding of each element (all variable-length parts empty), so a
// CRC-valid payload crafted to lie still cannot allocate past itself.
func readCheckpoint(d *lebin.Reader) (*fl.Checkpoint, []int) {
	ck := &fl.Checkpoint{
		Seed:      d.U64(),
		Round:     int(d.U32()),
		Strategy:  d.Str(),
		ServerRNG: readRNG(d),
		Global:    d.F32s(),
	}
	var lens []int
	if n := d.Count(104); n > 0 { // record: 4 + 6*8 + 4*8 + 5*4 = 104
		ck.Rounds = make([]fl.RoundRecord, 0, n)
		for i := 0; i < n && d.Len() > 0; i++ {
			ck.Rounds = append(ck.Rounds, readRecord(d))
		}
	}
	if n := d.Count(16); n > 0 { // decoder: id(4) + ref(12)
		ck.Decoders = make([]fl.DecoderState, n)
		lens = make([]int, n)
		for i := range ck.Decoders {
			ck.Decoders[i].ID = int(d.U32())
			ck.Decoders[i].Hash = d.U64()
			lens[i] = int(d.U32())
		}
	}
	if n := d.Count(45); n > 0 { // client: id(4) + rng(41)
		ck.Clients = make([]fl.ClientState, n)
		for i := range ck.Clients {
			ck.Clients[i] = fl.ClientState{ID: int(d.U32()), RNG: readRNG(d)}
		}
	}
	return ck, lens
}
