package wire

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"fedguard/internal/codec"
	"fedguard/internal/rng"
)

// benchVectors builds the payload shapes a federation round actually
// moves: a classifier update plus a CVAE decoder, with values drawn
// from the same normal initialization real weights start from.
func benchVectors() (weights, decoder []float32) {
	r := rng.New(42)
	weights = make([]float32, 8_192)
	decoder = make([]float32, 65_536)
	r.FillNormal(weights, 0, 0.1)
	r.FillNormal(decoder, 0, 0.1)
	return
}

func BenchmarkWireWriteUpdate(b *testing.B) {
	weights, decoder := benchVectors()
	classes := []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}

	b.Run("raw", func(b *testing.B) {
		msg := &Update{Round: 1, ClientID: 2, NumSamples: 150,
			Weights: weights, Decoder: decoder, DecoderClasses: classes}
		b.SetBytes(int64(4 * (len(weights) + len(decoder))))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := WriteMessage(io.Discard, msg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec", func(b *testing.B) {
		write := func() {
			msg := &UpdateC{Round: 1, ClientID: 2, NumSamples: 150,
				Encoding: EncCodec, NumParams: uint32(len(weights)),
				Weights:     codec.Encode(weights),
				DecoderHash: codec.Hash(decoder), NumDecoderParams: uint32(len(decoder)),
				Decoder: codec.Encode(decoder), DecoderClasses: classes}
			if err := WriteMessage(io.Discard, msg); err != nil {
				b.Fatal(err)
			}
		}
		// The guarded number is the write path's own allocations (3: the
		// message and the two encoded payloads). The frame and
		// plane-scratch buffers come from sync.Pools, which the collector
		// empties — and with ≈ 300 KB of encoded output per op on a 4 MB
		// heap it ran every dozen ops, so refills read as 4–6 allocs/op
		// at bench-guard's 50 iterations. A never-touched ballast moves
		// the next cycle ≈ 200 ops out; the pools are filled before the
		// clock starts.
		ballast := make([]byte, 64<<20)
		defer runtime.KeepAlive(ballast)
		for i := 0; i < 4; i++ {
			write()
		}
		b.SetBytes(int64(4 * (len(weights) + len(decoder))))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			write()
		}
	})
}

func BenchmarkWireReadUpdate(b *testing.B) {
	weights, decoder := benchVectors()
	classes := []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}

	b.Run("raw", func(b *testing.B) {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, &Update{Round: 1, ClientID: 2, NumSamples: 150,
			Weights: weights, Decoder: decoder, DecoderClasses: classes}); err != nil {
			b.Fatal(err)
		}
		frame := buf.Bytes()
		b.SetBytes(int64(4 * (len(weights) + len(decoder))))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ReadMessage(bytes.NewReader(frame)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec", func(b *testing.B) {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, &UpdateC{Round: 1, ClientID: 2, NumSamples: 150,
			Encoding: EncCodec, NumParams: uint32(len(weights)),
			Weights:     codec.Encode(weights),
			DecoderHash: codec.Hash(decoder), NumDecoderParams: uint32(len(decoder)),
			Decoder: codec.Encode(decoder), DecoderClasses: classes}); err != nil {
			b.Fatal(err)
		}
		frame := buf.Bytes()
		b.SetBytes(int64(4 * (len(weights) + len(decoder))))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			msg, err := ReadMessage(bytes.NewReader(frame))
			if err != nil {
				b.Fatal(err)
			}
			u := msg.(*UpdateC)
			if _, err := codec.Decode(u.Weights, len(weights)); err != nil {
				b.Fatal(err)
			}
			if _, err := codec.Decode(u.Decoder, len(decoder)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRoundWireBytes measures the bytes one federation round puts
// on the wire per participating client — broadcast down, update (with
// decoder) up — and reports them as a bytes/round metric for raw
// framing vs the negotiated codec path (delta-encoded broadcast and
// weights, decoder deduplicated to a hash token after its first send).
func BenchmarkRoundWireBytes(b *testing.B) {
	weights, decoder := benchVectors()
	prev := make([]float32, len(weights))
	for i := range prev {
		prev[i] = weights[i] * 0.999 // the per-round drift deltas exploit
	}
	classes := []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}

	frameLen := func(msg any) int64 {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, msg); err != nil {
			b.Fatal(err)
		}
		return int64(buf.Len())
	}

	b.Run("raw", func(b *testing.B) {
		var total int64
		for i := 0; i < b.N; i++ {
			total = frameLen(&TrainRequest{Round: 2, NeedDecoder: true, Global: weights}) +
				frameLen(&Update{Round: 2, ClientID: 1, NumSamples: 150,
					Weights: weights, Decoder: decoder, DecoderClasses: classes})
		}
		b.ReportMetric(float64(total), "bytes/round")
	})
	b.Run("codec", func(b *testing.B) {
		var total int64
		for i := 0; i < b.N; i++ {
			down, err := codec.EncodeDelta(weights, prev)
			if err != nil {
				b.Fatal(err)
			}
			up, err := codec.EncodeDelta(prev, weights)
			if err != nil {
				b.Fatal(err)
			}
			// Steady state: the server already caches this client's decoder,
			// so the update carries only its hash.
			total = frameLen(&TrainRequestC{Round: 2, NeedDecoder: true,
				DecoderHash: codec.Hash(decoder), Encoding: EncDelta,
				BaseRound: 1, NumParams: uint32(len(weights)), Payload: down}) +
				frameLen(&UpdateC{Round: 2, ClientID: 1, NumSamples: 150,
					Encoding: EncDelta, NumParams: uint32(len(weights)), Weights: up,
					DecoderHash: codec.Hash(decoder), DecoderClasses: classes})
		}
		b.ReportMetric(float64(total), "bytes/round")
	})
}
