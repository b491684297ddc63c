package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// goldenFrames pins the byte-level wire format for every message type:
// [4B LE payload length][4B LE CRC-32C][1B type][body]. A networked
// federation mixes server and client builds, so any change to these
// bytes is a protocol break and must be deliberate (bump this table in
// the same change).
var goldenFrames = []struct {
	name string
	msg  any
	hex  string
}{
	{
		name: "Hello",
		msg:  &Hello{ClientID: 7},
		hex:  "0500000053a163640107000000",
	},
	{
		name: "Setup",
		msg: &Setup{Seed: 1, DataSeed: 2, TrainSize: 3, Indices: []uint32{4, 5},
			ArchName: "tiny", Epochs: 6, BatchSize: 7, LR: 0.5, Momentum: 0.25,
			CVAEHidden: 8, CVAELatent: 9, CVAEEpochs: 10, CVAEBatch: 11, CVAELR: 0.125,
			NumClasses: 12, Attack: "sign-flip", AttackSeed: 13},
		hex: "7200000079af7fc60201000000000000000200000000000000030000000200000004000000050000000400000074696e790600000007000000000000000000e03f000000000000d03f08000000090000000a0000000b000000000000000000c03f0c000000090000007369676e2d666c69700d00000000000000",
	},
	{
		name: "TrainRequest",
		msg:  &TrainRequest{Round: 2, NeedDecoder: true, Global: []float32{1, -2, 0.5}},
		hex:  "16000000202b552d030200000001030000000000803f000000c00000003f",
	},
	{
		name: "Update",
		msg: &Update{Round: 3, ClientID: 4, NumSamples: 5, Weights: []float32{1.5},
			Decoder: []float32{-0.5, 2}, DecoderClasses: []uint32{0, 9}},
		hex: "2d0000004b4e75a604030000000400000005000000010000000000c03f02000000000000bf00000040020000000000000009000000",
	},
	{
		name: "Shutdown",
		msg:  &Shutdown{},
		hex:  "010000004d478c6705",
	},
	// Compressed-path pins. Hello/Setup with a capability byte appended
	// and the TrainRequestC/UpdateC bodies — new frames only; the raw
	// pins above are untouched by negotiation.
	{
		name: "HelloWithEncodings",
		msg:  &Hello{ClientID: 7, Encodings: CapCodec},
		hex:  "06000000d49a07e2010700000001",
	},
	{
		name: "SetupWithEncodings",
		msg: &Setup{Seed: 1, DataSeed: 2, TrainSize: 3, Indices: []uint32{4, 5},
			ArchName: "tiny", Epochs: 6, BatchSize: 7, LR: 0.5, Momentum: 0.25,
			CVAEHidden: 8, CVAELatent: 9, CVAEEpochs: 10, CVAEBatch: 11, CVAELR: 0.125,
			NumClasses: 12, Attack: "sign-flip", AttackSeed: 13, Encodings: CapCodec},
		hex: "730000003c20faa90201000000000000000200000000000000030000000200000004000000050000000400000074696e790600000007000000000000000000e03f000000000000d03f08000000090000000a0000000b000000000000000000c03f0c000000090000007369676e2d666c69700d0000000000000001",
	},
	{
		name: "TrainRequestC",
		msg: &TrainRequestC{Round: 2, NeedDecoder: true, DecoderHash: 0xDEADBEEF01020304,
			Encoding: EncDelta, BaseRound: 1, NumParams: 3, Payload: []byte{0x03, 0x06, 0x01, 0x02}},
		hex: "1f000000579b206d06020000000104030201efbeadde0201000000030000000400000003060102",
	},
	{
		name: "UpdateC",
		msg: &UpdateC{Round: 3, ClientID: 4, NumSamples: 5, Encoding: EncCodec,
			NumParams: 1, Weights: []byte{0x01, 0x02, 0xAA}, DecoderHash: 0x1122334455667788,
			NumDecoderParams: 2, Decoder: []byte{0x02, 0x05, 0x00}, DecoderClasses: []uint32{0, 9}},
		hex: "38000000698eb374070300000004000000050000000101000000030000000102aa88776655443322110200000003000000020500020000000000000009000000",
	},
	// Trace-propagation pins (CapTrace). The trace context is a trailing
	// 16-byte block appended after the legacy body; the untraced pins
	// above stay byte-identical. Registration advertises the capability
	// through the same Encodings byte as CapCodec.
	{
		name: "HelloWithTrace",
		msg:  &Hello{ClientID: 7, Encodings: CapCodec | CapTrace},
		hex:  "0600000023ea3c03010700000003",
	},
	{
		name: "TrainRequestTraced",
		msg: &TrainRequest{Round: 2, NeedDecoder: true, Global: []float32{1, -2, 0.5},
			Trace: Trace{TraceID: 0x0123456789ABCDEF, SpanID: 0xFEDCBA9876543210}},
		hex: "260000009ef18090030200000001030000000000803f000000c00000003fefcdab89674523011032547698badcfe",
	},
	{
		name: "UpdateTraced",
		msg: &Update{Round: 3, ClientID: 4, NumSamples: 5, Weights: []float32{1.5},
			Decoder: []float32{-0.5, 2}, DecoderClasses: []uint32{0, 9},
			Trace: Trace{TraceID: 0x0123456789ABCDEF, SpanID: 0xFEDCBA9876543210}},
		hex: "3d000000bdf508b204030000000400000005000000010000000000c03f02000000000000bf00000040020000000000000009000000efcdab89674523011032547698badcfe",
	},
	{
		name: "TrainRequestCTraced",
		msg: &TrainRequestC{Round: 2, NeedDecoder: true, DecoderHash: 0xDEADBEEF01020304,
			Encoding: EncDelta, BaseRound: 1, NumParams: 3, Payload: []byte{0x03, 0x06, 0x01, 0x02},
			Trace: Trace{TraceID: 0x0123456789ABCDEF, SpanID: 0xFEDCBA9876543210}},
		hex: "2f000000bbfd9a1606020000000104030201efbeadde0201000000030000000400000003060102efcdab89674523011032547698badcfe",
	},
	{
		name: "UpdateCTraced",
		msg: &UpdateC{Round: 3, ClientID: 4, NumSamples: 5, Encoding: EncCodec,
			NumParams: 1, Weights: []byte{0x01, 0x02, 0xAA}, DecoderHash: 0x1122334455667788,
			NumDecoderParams: 2, Decoder: []byte{0x02, 0x05, 0x00}, DecoderClasses: []uint32{0, 9},
			Trace: Trace{TraceID: 0x0123456789ABCDEF, SpanID: 0xFEDCBA9876543210}},
		hex: "4800000053423c9e070300000004000000050000000101000000030000000102aa88776655443322110200000003000000020500020000000000000009000000efcdab89674523011032547698badcfe",
	},
}

// TestTraceBlockLegacySafe pins the compatibility contract of CapTrace:
// a zero Trace adds no bytes (traced builds talking to peers that did
// not negotiate it emit exactly the golden untraced frames), and
// stripping the trailing 16-byte block from a traced frame's body yields
// the untraced body bit-for-bit. The decoder accepts both shapes and
// nothing else (TestReadMessageRejectsTrailingBytes); a peer that never
// advertised CapTrace is never sent the block.
func TestTraceBlockLegacySafe(t *testing.T) {
	tr := Trace{TraceID: 0x0123456789ABCDEF, SpanID: 0xFEDCBA9876543210}
	pairs := []struct {
		name           string
		legacy, traced any
	}{
		{
			name:   "TrainRequest",
			legacy: &TrainRequest{Round: 9, Global: []float32{1, 2}},
			traced: &TrainRequest{Round: 9, Global: []float32{1, 2}, Trace: tr},
		},
		{
			name:   "Update",
			legacy: &Update{Round: 9, ClientID: 1, NumSamples: 2, Weights: []float32{3}},
			traced: &Update{Round: 9, ClientID: 1, NumSamples: 2, Weights: []float32{3}, Trace: tr},
		},
		{
			name:   "TrainRequestC",
			legacy: &TrainRequestC{Round: 9, Encoding: EncCodec, NumParams: 1, Payload: []byte{7}},
			traced: &TrainRequestC{Round: 9, Encoding: EncCodec, NumParams: 1, Payload: []byte{7}, Trace: tr},
		},
		{
			name:   "UpdateC",
			legacy: &UpdateC{Round: 9, ClientID: 1, NumSamples: 2, Encoding: EncCodec, NumParams: 1, Weights: []byte{7}},
			traced: &UpdateC{Round: 9, ClientID: 1, NumSamples: 2, Encoding: EncCodec, NumParams: 1, Weights: []byte{7}, Trace: tr},
		},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			var lbuf, tbuf bytes.Buffer
			if err := WriteMessage(&lbuf, p.legacy); err != nil {
				t.Fatal(err)
			}
			if err := WriteMessage(&tbuf, p.traced); err != nil {
				t.Fatal(err)
			}
			lb, tb := lbuf.Bytes(), tbuf.Bytes()
			if len(tb) != len(lb)+16 {
				t.Fatalf("traced frame is %d bytes, legacy %d; want exactly +16", len(tb), len(lb))
			}
			// Same payload modulo header (length + CRC differ by design).
			if !bytes.Equal(tb[headerSize:len(tb)-16], lb[headerSize:]) {
				t.Fatal("traced body is not legacy body + trailing block")
			}
			// Traced frame round-trips with its context intact.
			got, err := ReadMessage(bytes.NewReader(tb))
			if err != nil {
				t.Fatal(err)
			}
			if !equalMessage(got, p.traced) {
				t.Fatalf("traced round-trip: got %#v, want %#v", got, p.traced)
			}
			// Legacy frame decodes with a zero context.
			got, err = ReadMessage(bytes.NewReader(lb))
			if err != nil {
				t.Fatal(err)
			}
			if !equalMessage(got, p.legacy) {
				t.Fatalf("legacy round-trip: got %#v, want %#v", got, p.legacy)
			}
		})
	}
}

func TestGoldenFrameBytes(t *testing.T) {
	for _, g := range goldenFrames {
		t.Run(g.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteMessage(&buf, g.msg); err != nil {
				t.Fatal(err)
			}
			want, err := hex.DecodeString(g.hex)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("encoded bytes changed — wire protocol break:\n got %s\nwant %s",
					hex.EncodeToString(buf.Bytes()), g.hex)
			}
			got, err := ReadMessage(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("golden frame no longer decodes: %v", err)
			}
			if !equalMessage(got, g.msg) {
				t.Fatalf("golden frame decoded as %#v, want %#v", got, g.msg)
			}
		})
	}
}

// equalMessage compares decoded against original, tolerating the
// decoder's nil-vs-empty slice distinction for optional fields.
func equalMessage(got, want any) bool {
	if reflect.TypeOf(got) != reflect.TypeOf(want) {
		return false
	}
	return reflect.DeepEqual(normalize(got), normalize(want))
}

func normalize(m any) any {
	switch u := m.(type) {
	case *Update:
		c := *u
		if len(c.Decoder) == 0 {
			c.Decoder = nil
		}
		if len(c.DecoderClasses) == 0 {
			c.DecoderClasses = nil
		}
		return &c
	case *UpdateC:
		c := *u
		if len(c.Weights) == 0 {
			c.Weights = nil
		}
		if len(c.Decoder) == 0 {
			c.Decoder = nil
		}
		if len(c.DecoderClasses) == 0 {
			c.DecoderClasses = nil
		}
		return &c
	case *TrainRequestC:
		c := *u
		if len(c.Payload) == 0 {
			c.Payload = nil
		}
		return &c
	}
	return m
}
