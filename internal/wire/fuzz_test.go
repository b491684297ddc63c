package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"fedguard/internal/lebin"
)

// FuzzReadMessage hammers the frame decoder with arbitrary bytes: it
// must return an error or a message — never panic, and never allocate
// far beyond the bytes actually supplied (a lying length prefix is the
// classic trap). Decoded messages must survive a re-encode/decode round
// trip.
func FuzzReadMessage(f *testing.F) {
	// Seed corpus: one well-formed frame per message type…
	for _, msg := range []any{
		&Hello{ClientID: 3},
		&Setup{Seed: 1, DataSeed: 2, TrainSize: 10, Indices: []uint32{1, 2},
			ArchName: "tiny", Epochs: 1, BatchSize: 8, LR: 0.1, Momentum: 0.9,
			CVAEHidden: 4, CVAELatent: 2, CVAEEpochs: 1, CVAEBatch: 8, CVAELR: 1e-3,
			NumClasses: 10, Attack: "sign-flip", AttackSeed: 7},
		&TrainRequest{Round: 1, NeedDecoder: true, Global: []float32{1, 2, 3}},
		&Update{Round: 1, ClientID: 2, NumSamples: 3, Weights: []float32{0.5},
			Decoder: []float32{1}, DecoderClasses: []uint32{4}},
		&Shutdown{},
		&Hello{ClientID: 3, Encodings: CapCodec},
		&TrainRequestC{Round: 1, NeedDecoder: true, DecoderHash: 5,
			Encoding: EncDelta, BaseRound: 0, NumParams: 2, Payload: []byte{2, 0, 0, 0, 0}},
		&UpdateC{Round: 1, ClientID: 2, NumSamples: 3, Encoding: EncCodec,
			NumParams: 1, Weights: []byte{1, 2, 3}, DecoderHash: 9,
			NumDecoderParams: 1, Decoder: []byte{1, 0, 0, 0, 0}, DecoderClasses: []uint32{4}},
	} {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, msg); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// …plus the hostile shapes the decoder must reject: truncated
	// header, truncated body, oversized and zero length prefixes, an
	// unknown tag, and a length-lying f32 vector.
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0, 1})
	f.Add(buildFrame(nil))
	f.Add(buildFrame([]byte{99}))
	lying := []byte{TypeUpdate}
	lying = lebin.AppendU32(lying, 1)
	lying = lebin.AppendU32(lying, 1)
	lying = lebin.AppendU32(lying, 1)
	lying = lebin.AppendU32(lying, 1<<30)
	f.Add(buildFrame(lying))
	truncated := buildFrame([]byte{TypeHello, 1, 2, 3, 4})
	f.Add(truncated[:len(truncated)-2])

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= headerSize {
			// Keep the claimed length within the input's ballpark so every
			// fuzz iteration stays cheap; hostile large prefixes have their
			// own dedicated allocation-bound test.
			n := binary.LittleEndian.Uint32(data[:4])
			if n > uint32(len(data))+64 && n <= MaxFrame {
				t.Skip()
			}
		}
		msg, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded must re-encode, decode, and re-encode to the
		// same bytes (byte-level comparison sidesteps NaN payloads).
		var first bytes.Buffer
		if err := WriteMessage(&first, msg); err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", msg, err)
		}
		again, err := ReadMessage(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", msg, err)
		}
		var second bytes.Buffer
		if err := WriteMessage(&second, again); err != nil {
			t.Fatalf("twice-decoded %T does not re-encode: %v", again, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip drifted:\n first %x\nsecond %x", first.Bytes(), second.Bytes())
		}
	})
}
