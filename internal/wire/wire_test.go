package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"fedguard/internal/lebin"
	"fedguard/internal/rng"
)

func roundTrip(t *testing.T, msg any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, msg); err != nil {
		t.Fatalf("encode %T: %v", msg, err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatalf("decode %T: %v", msg, err)
	}
	return got
}

func TestHelloRoundTrip(t *testing.T) {
	got := roundTrip(t, &Hello{ClientID: 42})
	if h, ok := got.(*Hello); !ok || h.ClientID != 42 {
		t.Fatalf("got %#v", got)
	}
}

func TestSetupRoundTrip(t *testing.T) {
	in := &Setup{
		Seed: 7, DataSeed: 9, TrainSize: 1000,
		Indices:  []uint32{1, 5, 9},
		ArchName: "tiny",
		Epochs:   3, BatchSize: 32, LR: 0.05, Momentum: 0.9,
		CVAEHidden: 256, CVAELatent: 2, CVAEEpochs: 30, CVAEBatch: 32, CVAELR: 1e-3,
		NumClasses: 10,
		Attack:     "sign-flip", AttackSeed: 11,
	}
	got := roundTrip(t, in)
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("setup round trip:\n in %#v\nout %#v", in, got)
	}
}

func TestTrainRequestRoundTrip(t *testing.T) {
	r := rng.New(1)
	global := make([]float32, 1000)
	r.FillNormal(global, 0, 1)
	in := &TrainRequest{Round: 3, NeedDecoder: true, Global: global}
	got := roundTrip(t, in).(*TrainRequest)
	if got.Round != 3 || !got.NeedDecoder {
		t.Fatalf("header fields lost: %+v", got)
	}
	if !reflect.DeepEqual(got.Global, global) {
		t.Fatal("global weights corrupted")
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	r := rng.New(2)
	w := make([]float32, 500)
	d := make([]float32, 200)
	r.FillNormal(w, 0, 1)
	r.FillNormal(d, 0, 1)
	in := &Update{
		Round: 9, ClientID: 4, NumSamples: 120,
		Weights: w, Decoder: d, DecoderClasses: []uint32{2, 5, 7},
	}
	got := roundTrip(t, in).(*Update)
	if !reflect.DeepEqual(in, got) {
		t.Fatal("update round trip corrupted data")
	}
}

func TestUpdateRoundTripEmptyOptionalFields(t *testing.T) {
	in := &Update{Round: 1, ClientID: 2, NumSamples: 3, Weights: []float32{1}}
	got := roundTrip(t, in).(*Update)
	if len(got.Decoder) != 0 || len(got.DecoderClasses) != 0 {
		t.Fatalf("empty fields became %v, %v", got.Decoder, got.DecoderClasses)
	}
}

func TestShutdownRoundTrip(t *testing.T) {
	if _, ok := roundTrip(t, &Shutdown{}).(*Shutdown); !ok {
		t.Fatal("shutdown lost its type")
	}
}

func TestMultipleMessagesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	msgs := []any{
		&Hello{ClientID: 1},
		&TrainRequest{Round: 1, Global: []float32{1, 2}},
		&Shutdown{},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if reflect.TypeOf(got) != reflect.TypeOf(msgs[i]) {
			t.Fatalf("message %d type %T, want %T", i, got, msgs[i])
		}
	}
}

// buildFrame assembles a raw frame around payload (type byte + body)
// with a correct checksum, so tests can probe decode paths past the CRC.
func buildFrame(payload []byte) []byte {
	frame := lebin.AppendU32(nil, uint32(len(payload)))
	frame = lebin.AppendU32(frame, lebin.Checksum(0, payload))
	return append(frame, payload...)
}

func TestReadMessageRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},                                  // empty
		{1, 2},                              // short header
		{1, 2, 3, 4, 5},                     // truncated header
		buildFrame(nil),                     // zero length
		{255, 255, 255, 255, 0, 0, 0, 0, 1}, // oversized length
		buildFrame([]byte{99, 0}),           // unknown type
	}
	for i, c := range cases {
		if _, err := ReadMessage(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

func TestReadMessageRejectsChecksumMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &TrainRequest{Round: 2, Global: []float32{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one payload bit; every position must be caught by the CRC.
	for pos := headerSize; pos < len(data); pos++ {
		mutated := append([]byte(nil), data...)
		mutated[pos] ^= 0x40
		_, err := ReadMessage(bytes.NewReader(mutated))
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: err = %v, want ErrChecksum", pos, err)
		}
	}
	// The stream must stay frame-aligned after a checksum error: a clean
	// frame following a corrupt one decodes normally.
	corrupt := append([]byte(nil), data...)
	corrupt[headerSize+1] ^= 0xFF
	stream := append(corrupt, data...)
	r := bytes.NewReader(stream)
	if _, err := ReadMessage(r); !errors.Is(err, ErrChecksum) {
		t.Fatalf("first frame: %v, want ErrChecksum", err)
	}
	msg, err := ReadMessage(r)
	if err != nil {
		t.Fatalf("frame after checksum error: %v", err)
	}
	if req, ok := msg.(*TrainRequest); !ok || req.Round != 2 {
		t.Fatalf("realigned frame decoded as %#v", msg)
	}
}

// A hostile length prefix claiming a huge frame over a nearly empty
// stream must fail on truncation after a bounded allocation — never
// attempt to reserve the claimed size up front.
func TestReadMessageBoundsAllocationOnLyingLength(t *testing.T) {
	frame := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(frame, uint32(MaxFrame)) // claims 256 MB
	frame = append(frame, 1, 2, 3)                         // delivers 3 bytes
	before := totalAllocBytes()
	if _, err := ReadMessage(bytes.NewReader(frame)); err == nil {
		t.Fatal("lying length prefix accepted")
	}
	// Allow 64 KiB of slack over the two growth chunks: the race
	// runtime pads large allocations by a few hundred bytes, which must
	// not fail a bound that exists to catch 256 MB up-front reserves.
	if limit := int64(2*lebin.AllocChunk + 64<<10); totalAllocBytes()-before > limit {
		t.Fatalf("claimed-256MB frame allocated %d bytes; want ≤ %d", totalAllocBytes()-before, limit)
	}
}

func totalAllocBytes() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc)
}

func TestReadMessageRejectsTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &TrainRequest{Round: 1, Global: make([]float32, 100)}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadMessage(bytes.NewReader(data[:len(data)-10])); err == nil {
		t.Fatal("truncated body accepted")
	}
}

// A frame must end exactly after its last field, its capability byte
// (Hello, Setup) or its one trace block: 1, 15 or 17 bytes past that
// are a decode error, whether they fall short of a trace block or trail
// a whole one.
func TestReadMessageRejectsTrailingBytes(t *testing.T) {
	for _, msg := range []any{
		&Hello{ClientID: 7, Encodings: CapCodec},
		&Setup{Seed: 1, ArchName: "tiny", Attack: "none", Encodings: CapCodec},
		&TrainRequest{Round: 2, Global: []float32{1, 2}},
		&TrainRequestC{Round: 2, Encoding: EncCodec, NumParams: 1, Payload: []byte{7}},
		&Update{Round: 2, ClientID: 1, NumSamples: 3, Weights: []float32{4}},
		&UpdateC{Round: 2, ClientID: 1, NumSamples: 3, Encoding: EncCodec, NumParams: 1, Weights: []byte{7}},
	} {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, msg); err != nil {
			t.Fatal(err)
		}
		payload := buf.Bytes()[headerSize:]
		for _, extra := range []int{1, 15, 17} {
			padded := append(append([]byte(nil), payload...), bytes.Repeat([]byte{0xA5}, extra)...)
			if got, err := ReadMessage(bytes.NewReader(buildFrame(padded))); err == nil {
				t.Errorf("%T with %d trailing bytes decoded as %+v", msg, extra, got)
			}
		}
	}
}

func TestDecoderGuardsLengthLies(t *testing.T) {
	// An Update whose f32s header claims more floats than the body holds.
	payload := []byte{TypeUpdate}
	payload = lebin.AppendU32(payload, 1)          // round
	payload = lebin.AppendU32(payload, 1)          // client
	payload = lebin.AppendU32(payload, 1)          // samples
	payload = lebin.AppendU32(payload, 1000000000) // claimed weight count
	if _, err := ReadMessage(bytes.NewReader(buildFrame(payload))); err == nil {
		t.Fatal("length-lying frame accepted")
	}
}

func TestQuickUpdateRoundTrip(t *testing.T) {
	f := func(round, id, samples uint32, w []float32, classes []uint32) bool {
		in := &Update{Round: round, ClientID: id, NumSamples: samples,
			Weights: w, DecoderClasses: classes}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, in); err != nil {
			return false
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			return false
		}
		u, ok := got.(*Update)
		if !ok || u.Round != round || u.ClientID != id || u.NumSamples != samples {
			return false
		}
		if len(u.Weights) != len(w) || len(u.DecoderClasses) != len(classes) {
			return false
		}
		for i := range w {
			// Compare bit patterns so NaN payloads round-trip too.
			if !sameBits(u.Weights[i], w[i]) {
				return false
			}
		}
		for i := range classes {
			if u.DecoderClasses[i] != classes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func sameBits(a, b float32) bool {
	return (a == b) || (a != a && b != b) // equal, or both NaN
}

func TestWriteMessageRejectsUnknownType(t *testing.T) {
	if err := WriteMessage(io.Discard, struct{}{}); err == nil {
		t.Fatal("unknown message type accepted")
	}
}

func TestTrainRequestCRoundTrip(t *testing.T) {
	in := &TrainRequestC{
		Round: 5, NeedDecoder: true, DecoderHash: 0xABCDEF,
		Encoding: EncDelta, BaseRound: 4, NumParams: 7,
		Payload: []byte{9, 8, 7, 6},
	}
	got := roundTrip(t, in).(*TrainRequestC)
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("round trip:\n in %#v\nout %#v", in, got)
	}
}

func TestUpdateCRoundTrip(t *testing.T) {
	in := &UpdateC{
		Round: 2, ClientID: 3, NumSamples: 40,
		Encoding: EncCodec, NumParams: 12, Weights: []byte{1, 2, 3},
		DecoderHash: 77, NumDecoderParams: 5, Decoder: []byte{4, 5},
		DecoderClasses: []uint32{0, 3, 9},
	}
	got := roundTrip(t, in).(*UpdateC)
	if !reflect.DeepEqual(in, got) {
		t.Fatalf("round trip:\n in %#v\nout %#v", in, got)
	}
	// Cache-hit shape: hash without bytes must survive as-is.
	token := &UpdateC{Round: 2, ClientID: 3, NumSamples: 40,
		Encoding: EncDelta, NumParams: 1, Weights: []byte{0}, DecoderHash: 99}
	tok := roundTrip(t, token).(*UpdateC)
	if tok.DecoderHash != 99 || len(tok.Decoder) != 0 || tok.NumDecoderParams != 0 {
		t.Fatalf("decoder token corrupted: %#v", tok)
	}
}

// The capability byte must be invisible when zero: frames are
// byte-identical to the legacy encoding, and legacy frames (without the
// byte) decode with Encodings == 0. That is the whole negotiation story
// — an old peer neither sends nor is sent anything it doesn't know; the
// decoder takes at most the one byte (TestReadMessageRejectsTrailingBytes).
func TestCapabilityByteCompat(t *testing.T) {
	var plain, withCap bytes.Buffer
	if err := WriteMessage(&plain, &Hello{ClientID: 9}); err != nil {
		t.Fatal(err)
	}
	if err := WriteMessage(&withCap, &Hello{ClientID: 9, Encodings: CapCodec}); err != nil {
		t.Fatal(err)
	}
	if withCap.Len() != plain.Len()+1 {
		t.Fatalf("capability byte cost %d bytes, want 1", withCap.Len()-plain.Len())
	}
	got, err := ReadMessage(&plain)
	if err != nil {
		t.Fatal(err)
	}
	if h := got.(*Hello); h.Encodings != 0 {
		t.Fatalf("legacy frame decoded with Encodings = %d", h.Encodings)
	}
	got, err = ReadMessage(&withCap)
	if err != nil {
		t.Fatal(err)
	}
	if h := got.(*Hello); h.Encodings != CapCodec {
		t.Fatalf("capability byte lost: %#v", h)
	}

	setup := &Setup{Seed: 1, ArchName: "tiny", Attack: "none"}
	var s0 bytes.Buffer
	if err := WriteMessage(&s0, setup); err != nil {
		t.Fatal(err)
	}
	setup.Encodings = CapCodec
	var s1 bytes.Buffer
	if err := WriteMessage(&s1, setup); err != nil {
		t.Fatal(err)
	}
	if s1.Len() != s0.Len()+1 {
		t.Fatalf("Setup capability byte cost %d bytes, want 1", s1.Len()-s0.Len())
	}
	m0, err := ReadMessage(&s0)
	if err != nil {
		t.Fatal(err)
	}
	if m0.(*Setup).Encodings != 0 {
		t.Fatal("zero-capability Setup decoded with nonzero Encodings")
	}
	m1, err := ReadMessage(&s1)
	if err != nil {
		t.Fatal(err)
	}
	if m1.(*Setup).Encodings != CapCodec {
		t.Fatal("Setup capability byte lost")
	}
}

func TestUpdateCGuardsLengthLies(t *testing.T) {
	payload := []byte{TypeUpdateC}
	payload = lebin.AppendU32(payload, 1) // round
	payload = lebin.AppendU32(payload, 1) // client
	payload = lebin.AppendU32(payload, 1) // samples
	payload = append(payload, EncCodec)
	payload = lebin.AppendU32(payload, 1)
	payload = lebin.AppendU32(payload, 1<<30) // claimed blob length
	if _, err := ReadMessage(bytes.NewReader(buildFrame(payload))); err == nil {
		t.Fatal("length-lying UpdateC accepted")
	}
}
