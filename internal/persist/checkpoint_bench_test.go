package persist

import (
	"io"
	"testing"

	"fedguard/internal/codec"
	"fedguard/internal/fl"
	"fedguard/internal/rng"
)

// benchShapes are the two checkpoints the ledger tracks. "quick" mirrors
// a quick-preset in-process FedGuard run mid-flight: a Tiny-scale global
// vector, every client's stream and every client's trained decoder. "default"
// is what fednet.Server.Snapshot hands over each round of the
// default-preset networked run the benchmark's fedguard-tcp workload
// drives: 30 cached decoders of 207 386 parameters — 25 MB that a round
// does not change — beside a 20 490-parameter global.
var benchShapes = []struct {
	name                           string
	networked                      bool
	clients, globalLen, decoderLen int
}{
	{name: "quick", clients: 16, globalLen: 25450, decoderLen: 13328},
	{name: "default", networked: true, clients: 30, globalLen: 20490, decoderLen: 207386},
}

func benchCheckpoint(networked bool, clients, globalLen, decoderLen int) *fl.Checkpoint {
	r := rng.New(3)
	global := make([]float32, globalLen)
	for i := range global {
		global[i] = float32(r.NormFloat64())
	}
	base := make([]float32, decoderLen)
	for i := range base {
		base[i] = float32(r.NormFloat64())
	}
	ck := &fl.Checkpoint{
		Round:     12,
		Seed:      42,
		Strategy:  "FedGuard",
		Global:    global,
		ServerRNG: r.State(),
	}
	sampled := []int{0, 3, 7, 9, 11, 2, 5, 14}
	decisions := make([]fl.Decision, len(sampled))
	for i, id := range sampled {
		decisions[i] = fl.Decision{ClientID: id, Score: 0.1 * float64(i), Kept: i >= 2, Malicious: i < 2}
	}
	for round := 1; round <= 12; round++ {
		ck.Rounds = append(ck.Rounds, fl.RoundRecord{
			Round: round, TestAccuracy: 0.7, Seconds: 2,
			TrainSeconds: 1.5, AggregateSeconds: 0.3, EvalSeconds: 0.2,
			UploadBytes: 814400, DownloadBytes: 1629000,
			WireUploadBytes: 290000, WireDownloadBytes: 410000,
			Sampled: sampled, MaliciousSampled: 2,
			Threshold: 0.35, Decisions: decisions,
			Report: map[string]float64{},
		})
	}
	for id := 0; id < clients; id++ {
		// One float apart is enough for every client to own a distinct
		// decoder with its own real hash.
		decoder := append([]float32(nil), base...)
		decoder[0] = float32(id)
		ck.Decoders = append(ck.Decoders, fl.DecoderState{ID: id, Hash: codec.Hash(decoder), Params: decoder})
		if !networked {
			ck.Clients = append(ck.Clients, fl.ClientState{ID: id, RNG: rng.New(uint64(id)).State()})
		}
	}
	return ck
}

// BenchmarkCheckpointWrite measures pure serialization cost (no disk) of
// the round file, the part that scales with model size and run length
// and is guarded by BENCH_guard.json. Disk cost is fsync-dominated and
// machine-specific, so this guard pins the compute side only.
func BenchmarkCheckpointWrite(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			ck := benchCheckpoint(s.networked, s.clients, s.globalLen, s.decoderLen)
			var bytes int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := WriteCheckpoint(io.Discard, ck)
				if err != nil {
					b.Fatal(err)
				}
				bytes = n
			}
			b.ReportMetric(float64(bytes), "bytes/ckpt")
		})
	}
}

// BenchmarkCheckpointSave measures the full durable path in the steady
// state — every decoder already on disk from the save outside the timer,
// so an iteration is what a warm round of a -checkpoint-dir run pays:
// list the directory, serialize, fsync, atomic rename. Its B/op ceiling
// in BENCH_guard.json is the tripwire for a decoder being re-serialised.
func BenchmarkCheckpointSave(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			ck := benchCheckpoint(s.networked, s.clients, s.globalLen, s.decoderLen)
			dir := b.TempDir()
			if _, _, err := SaveCheckpoint(dir, ck); err != nil {
				b.Fatal(err)
			}
			var bytes int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, n, err := SaveCheckpoint(dir, ck)
				if err != nil {
					b.Fatal(err)
				}
				bytes = n
			}
			b.ReportMetric(float64(bytes), "bytes/ckpt")
		})
	}
}
