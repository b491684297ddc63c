// Package wire defines the binary protocol of the networked federation
// (package fednet): length-prefixed frames carrying typed messages with
// explicit little-endian encoding. By default parameter vectors travel
// as raw float32s — 4 bytes per parameter — so measured wire traffic
// matches the paper's Table V accounting exactly. Peers that both
// advertise CapCodec during registration switch to the compressed
// message types (TrainRequestC/UpdateC), which carry codec byte-plane
// blobs, XOR deltas against shared reference vectors, and content-hash
// decoder dedup tokens — losslessly, so decoded payloads are
// bit-identical to the raw path.
//
// Frame layout:
//
//	[4-byte LE payload length][4-byte LE CRC-32C of payload][payload]
//
// where payload is [1-byte message type][body]. The length covers the
// type byte plus the body; the checksum covers the same bytes, so a
// flipped bit anywhere in a frame's payload is detected at the reader
// (CRC mismatches are transient: the stream stays frame-aligned and the
// peer can re-request). Frames are capped at MaxFrame to bound memory
// against corrupt or hostile peers, and payload buffers grow
// incrementally as bytes actually arrive, so a lying length prefix
// cannot force a large up-front allocation. Fields are encoded and
// bounds-checked by package lebin, the codec the checkpoint files share.
package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"

	"fedguard/internal/lebin"
)

// MaxFrame bounds a single frame's payload (type byte + body). The paper
// model (1.66M parameters ≈ 6.7 MB) fits with a wide margin.
const MaxFrame = 256 << 20

// headerSize is the fixed frame prelude: payload length plus CRC-32C.
const headerSize = 8

// ErrChecksum reports a frame whose payload bytes do not match the
// header checksum. The stream is still frame-aligned after this error
// (the full payload was consumed), so callers may treat it as transient
// and re-request.
var ErrChecksum = errors.New("wire: frame checksum mismatch")

// ErrBadFrame reports an unusable frame prelude (zero or oversized
// length). Alignment is unknown afterwards; callers should drop the
// connection.
var ErrBadFrame = errors.New("wire: bad frame length")

// Message types.
const (
	TypeHello        byte = 1 // client → server: registration
	TypeSetup        byte = 2 // server → client: experiment configuration
	TypeTrainRequest byte = 3 // server → client: one round of work
	TypeUpdate       byte = 4 // client → server: trained update
	TypeShutdown     byte = 5 // server → client: experiment over

	// Compressed variants, exchanged only after both ends negotiated
	// CapCodec during registration. A peer that never advertises the
	// capability never sees these types.
	TypeTrainRequestC byte = 6 // server → client: compressed round of work
	TypeUpdateC       byte = 7 // client → server: compressed trained update
)

// Payload encodings carried by the compressed message types. Raw
// vectors travel in the uncompressed types, so no encoding is 0.
const (
	// EncCodec marks a codec byte-plane blob of the full vector.
	EncCodec byte = 1
	// EncDelta marks a codec blob of the XOR delta against a reference
	// vector both endpoints already hold.
	EncDelta byte = 2
)

// CapCodec is the capability bit a peer sets in Hello/Setup.Encodings
// to advertise that it understands TrainRequestC/UpdateC frames (the
// codec and delta encodings). Raw framing stays the default: the bit is
// appended to the registration messages only when nonzero, so frames
// from and to legacy peers are byte-identical to the pinned golden
// format and negotiation degrades to raw automatically.
const CapCodec byte = 1

// CapTrace is the capability bit advertising distributed-trace context
// propagation: when both ends set it, TrainRequest/Update frames (and
// their compressed variants) may carry a trailing 16-byte Trace block
// linking the client's spans to the server's round span. Negotiated
// exactly like CapCodec — a silent peer never sees the extra bytes — and
// the block trails the untraced body unchanged, so a frame without it is
// the untraced frame.
const CapTrace byte = 2

// Trace is the compact trace context propagated across the wire: which
// trace a frame belongs to and which remote span caused it. The zero
// value means "no trace" and encodes to nothing.
type Trace struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context carries a real span identity.
func (t Trace) Valid() bool { return t.TraceID != 0 && t.SpanID != 0 }

// Hello registers a client with the server. Encodings is the optional
// capability bitmask (CapCodec, CapTrace): a trailing byte, omitted when
// zero, so a peer that advertises nothing sends the pinned golden frame.
type Hello struct {
	ClientID  uint32
	Encodings byte
}

// Setup tells a freshly registered client everything it needs to
// reconstruct its local state deterministically: the shared experiment
// seed (from which its private RNG stream is derived), the dataset
// generation parameters (clients regenerate SynthDigits locally rather
// than receiving pixels), its partition indices, its attack role, and
// the model/training hyperparameters.
type Setup struct {
	Seed      uint64
	DataSeed  uint64
	TrainSize uint32
	Indices   []uint32

	ArchName string
	// Classifier training.
	Epochs, BatchSize uint32
	LR, Momentum      float64
	// CVAE architecture + training.
	CVAEHidden, CVAELatent uint32
	CVAEEpochs, CVAEBatch  uint32
	CVAELR                 float64
	NumClasses             uint32
	// Attack role: "" or "none" means benign. AttackSeed pins the shared
	// collusive noise vector.
	Attack     string
	AttackSeed uint64
	// Encodings is the server's answer to Hello.Encodings: the
	// capability bits both sides will use (CapCodec or zero). Zero is
	// omitted from the frame, keeping legacy bytes intact.
	Encodings byte
}

// TrainRequest asks a client to run one local round from the given
// global parameters.
type TrainRequest struct {
	Round       uint32
	NeedDecoder bool
	Global      []float32
	// Trace, when valid, is appended as a trailing 16-byte block (only
	// on CapTrace-negotiated connections; see CapTrace).
	Trace Trace
}

// Update carries a client's trained submission back to the server.
type Update struct {
	Round          uint32
	ClientID       uint32
	NumSamples     uint32
	Weights        []float32
	Decoder        []float32 // empty when not requested
	DecoderClasses []uint32
	// Trace identifies the client-side round span that produced this
	// update (trailing block, CapTrace connections only).
	Trace Trace
}

// TrainRequestC is the compressed TrainRequest: the global parameter
// vector travels as a codec blob (EncCodec), usually an XOR delta
// against a base both endpoints hold (EncDelta). BaseRound identifies
// that base: the round whose global this connection last received, or 0
// for the seed-derived initial model ψ₀ that every fresh connection can
// reconstruct locally.
type TrainRequestC struct {
	Round       uint32
	NeedDecoder bool
	// DecoderHash is the content hash of the decoder payload the server
	// already caches for this client (0 = none). The client answers with
	// a hash token instead of decoder bytes when its payload still
	// matches — the dedup that stops re-uploading a static decoder.
	DecoderHash uint64
	Encoding    byte   // EncCodec or EncDelta
	BaseRound   uint32 // EncDelta: round of the base global (0 = ψ₀)
	NumParams   uint32 // element count of the encoded vector
	Payload     []byte // codec blob
	// Trace is the server-side request span (trailing block, CapTrace
	// connections only).
	Trace Trace
}

// UpdateC is the compressed Update. Weights travel as a codec blob,
// EncDelta-encoded against the round's broadcast global (which the
// server still holds while collecting). The decoder payload is
// deduplicated by content hash: bytes are attached only when the
// server's advertised hash (TrainRequestC.DecoderHash) was stale;
// otherwise DecoderHash alone tells the server to use its cache.
type UpdateC struct {
	Round      uint32
	ClientID   uint32
	NumSamples uint32
	Encoding   byte   // EncCodec or EncDelta (base: this round's global)
	NumParams  uint32 // element count of the weights vector
	Weights    []byte // codec blob
	// DecoderHash identifies the client's current decoder payload
	// (0 = no decoder attached this round).
	DecoderHash      uint64
	NumDecoderParams uint32
	Decoder          []byte // codec blob; empty with nonzero hash = cache hit
	DecoderClasses   []uint32
	// Trace identifies the client-side round span (trailing block,
	// CapTrace connections only).
	Trace Trace
}

// Shutdown ends the client's session.
type Shutdown struct{}

// frameBuf is WriteMessage's pooled working set: the body scratch, the
// 64 KiB buffered writer, and the header bytes. Pooling them removes
// the per-message allocations that dominated the write path (a fresh
// bufio.Writer per frame was most of it) without changing a byte on the
// wire or the underlying write pattern the fault-injection tests count.
type frameBuf struct {
	body   []byte
	header [headerSize + 1]byte
	bw     *bufio.Writer
}

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

// maxRetainedBody caps the body capacity a pooled frameBuf keeps;
// larger one-off frames are dropped so the pool does not pin them.
const maxRetainedBody = 16 << 20

// WriteMessage frames and writes one message.
func WriteMessage(w io.Writer, msg any) error {
	fb := framePool.Get().(*frameBuf)
	var typ byte
	body := fb.body[:0]
	switch m := msg.(type) {
	case *Hello:
		typ = TypeHello
		body = appendOptByte(lebin.AppendU32(body, m.ClientID), m.Encodings)
	case *Setup:
		typ = TypeSetup
		body = encodeSetup(m, body)
	case *TrainRequest:
		typ = TypeTrainRequest
		body = lebin.AppendU32(body, m.Round)
		body = lebin.AppendBool(body, m.NeedDecoder)
		body = lebin.AppendF32s(body, m.Global)
		body = appendTrace(body, m.Trace)
	case *Update:
		typ = TypeUpdate
		body = lebin.AppendU32(body, m.Round)
		body = lebin.AppendU32(body, m.ClientID)
		body = lebin.AppendU32(body, m.NumSamples)
		body = lebin.AppendF32s(body, m.Weights)
		body = lebin.AppendF32s(body, m.Decoder)
		body = lebin.AppendU32s(body, m.DecoderClasses)
		body = appendTrace(body, m.Trace)
	case *TrainRequestC:
		typ = TypeTrainRequestC
		body = lebin.AppendU32(body, m.Round)
		body = lebin.AppendBool(body, m.NeedDecoder)
		body = lebin.AppendU64(body, m.DecoderHash)
		body = append(body, m.Encoding)
		body = lebin.AppendU32(body, m.BaseRound)
		body = lebin.AppendU32(body, m.NumParams)
		body = lebin.AppendBytes(body, m.Payload)
		body = appendTrace(body, m.Trace)
	case *UpdateC:
		typ = TypeUpdateC
		body = lebin.AppendU32(body, m.Round)
		body = lebin.AppendU32(body, m.ClientID)
		body = lebin.AppendU32(body, m.NumSamples)
		body = append(body, m.Encoding)
		body = lebin.AppendU32(body, m.NumParams)
		body = lebin.AppendBytes(body, m.Weights)
		body = lebin.AppendU64(body, m.DecoderHash)
		body = lebin.AppendU32(body, m.NumDecoderParams)
		body = lebin.AppendBytes(body, m.Decoder)
		body = lebin.AppendU32s(body, m.DecoderClasses)
		body = appendTrace(body, m.Trace)
	case *Shutdown:
		typ = TypeShutdown
	default:
		framePool.Put(fb)
		return fmt.Errorf("wire: cannot encode %T", msg)
	}
	fb.body = body
	err := writeFrame(fb, w, typ, body)
	if cap(fb.body) > maxRetainedBody {
		fb.body = nil
	}
	framePool.Put(fb)
	return err
}

// writeFrame emits [len][crc][type+body] through the pooled buffered
// writer. The header and body stay separate Write calls so the
// underlying write boundaries match the historical per-call
// bufio.Writer exactly (the chaos harness counts them).
func writeFrame(fb *frameBuf, w io.Writer, typ byte, body []byte) error {
	n := len(body) + 1
	if n > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	fb.header[headerSize] = typ
	crc := lebin.Checksum(lebin.Checksum(0, fb.header[headerSize:]), body)
	// Appending to the header's empty prefix overwrites its first eight
	// bytes in place.
	lebin.AppendU32(lebin.AppendU32(fb.header[:0], uint32(n)), crc)
	bw := fb.bw
	if bw == nil {
		bw = bufio.NewWriterSize(w, 64<<10)
		fb.bw = bw
	} else {
		bw.Reset(w)
	}
	defer bw.Reset(nil) // drop the conn reference while pooled
	if _, err := bw.Write(fb.header[:]); err != nil {
		return err
	}
	if _, err := bw.Write(body); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadMessage reads and decodes one framed message. A checksum failure
// returns an error wrapping ErrChecksum with the stream still aligned on
// the next frame; a bad length prefix returns ErrBadFrame. A frame must
// end exactly after its last field, its capability byte (Hello, Setup)
// or its one trace block (TrainRequest, Update and their compressed
// variants); anything else is a decode error.
func ReadMessage(r io.Reader) (any, error) {
	head, err := lebin.ReadFull(r, headerSize)
	if err != nil {
		return nil, err
	}
	h := lebin.NewReader(head)
	n, wantCRC := h.U32(), h.U32()
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("%w: %d", ErrBadFrame, n)
	}
	payload, err := lebin.ReadFull(r, int(n))
	if err != nil {
		return nil, fmt.Errorf("wire: truncated frame: %w", err)
	}
	if got := lebin.Checksum(0, payload); got != wantCRC {
		return nil, fmt.Errorf("%w: got %08x, header says %08x", ErrChecksum, got, wantCRC)
	}
	d := lebin.NewReader(payload[1:])
	var msg any
	switch typ := payload[0]; typ {
	case TypeHello:
		msg = &Hello{ClientID: d.U32(), Encodings: optByte(d)}
	case TypeSetup:
		msg = decodeSetup(d)
	case TypeTrainRequest:
		msg = &TrainRequest{Round: d.U32(), NeedDecoder: d.Bool(), Global: d.F32s(), Trace: optTrace(d)}
	case TypeUpdate:
		msg = &Update{Round: d.U32(), ClientID: d.U32(), NumSamples: d.U32(),
			Weights: d.F32s(), Decoder: d.F32s(), DecoderClasses: d.U32s(), Trace: optTrace(d)}
	case TypeTrainRequestC:
		msg = &TrainRequestC{Round: d.U32(), NeedDecoder: d.Bool(), DecoderHash: d.U64(),
			Encoding: d.U8(), BaseRound: d.U32(), NumParams: d.U32(), Payload: d.Bytes(),
			Trace: optTrace(d)}
	case TypeUpdateC:
		msg = &UpdateC{Round: d.U32(), ClientID: d.U32(), NumSamples: d.U32(),
			Encoding: d.U8(), NumParams: d.U32(), Weights: d.Bytes(),
			DecoderHash: d.U64(), NumDecoderParams: d.U32(), Decoder: d.Bytes(),
			DecoderClasses: d.U32s(), Trace: optTrace(d)}
	case TypeShutdown:
		msg = &Shutdown{}
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", typ)
	}
	if err := d.End(); err != nil {
		return nil, fmt.Errorf("wire: message type %d: %w", payload[0], err)
	}
	return msg, nil
}

func encodeSetup(m *Setup, dst []byte) []byte {
	b := lebin.AppendU64(dst, m.Seed)
	b = lebin.AppendU64(b, m.DataSeed)
	b = lebin.AppendU32(b, m.TrainSize)
	b = lebin.AppendU32s(b, m.Indices)
	b = lebin.AppendStr(b, m.ArchName)
	b = lebin.AppendU32(b, m.Epochs)
	b = lebin.AppendU32(b, m.BatchSize)
	b = lebin.AppendF64(b, m.LR)
	b = lebin.AppendF64(b, m.Momentum)
	b = lebin.AppendU32(b, m.CVAEHidden)
	b = lebin.AppendU32(b, m.CVAELatent)
	b = lebin.AppendU32(b, m.CVAEEpochs)
	b = lebin.AppendU32(b, m.CVAEBatch)
	b = lebin.AppendF64(b, m.CVAELR)
	b = lebin.AppendU32(b, m.NumClasses)
	b = lebin.AppendStr(b, m.Attack)
	b = lebin.AppendU64(b, m.AttackSeed)
	return appendOptByte(b, m.Encodings)
}

func decodeSetup(d *lebin.Reader) *Setup {
	return &Setup{Seed: d.U64(), DataSeed: d.U64(), TrainSize: d.U32(), Indices: d.U32s(),
		ArchName: d.Str(), Epochs: d.U32(), BatchSize: d.U32(), LR: d.F64(), Momentum: d.F64(),
		CVAEHidden: d.U32(), CVAELatent: d.U32(), CVAEEpochs: d.U32(), CVAEBatch: d.U32(),
		CVAELR: d.F64(), NumClasses: d.U32(), Attack: d.Str(), AttackSeed: d.U64(),
		Encodings: optByte(d)}
}

// appendOptByte appends the trailing capability byte, or nothing when it
// is zero — keeping frames to and from peers that advertise nothing
// byte-identical to the pinned golden format.
func appendOptByte(b []byte, v byte) []byte {
	if v == 0 {
		return b
	}
	return append(b, v)
}

// optByte reads the trailing capability byte: a frame that ends before
// it decodes as zero.
func optByte(d *lebin.Reader) byte {
	if d.Len() == 0 {
		return 0
	}
	return d.U8()
}

// appendTrace appends the 16-byte trailing trace-context block, or
// nothing when the context is the zero value — keeping untraced frames
// byte-identical to the golden format.
func appendTrace(b []byte, t Trace) []byte {
	if !t.Valid() {
		return b
	}
	return lebin.AppendU64(lebin.AppendU64(b, t.TraceID), t.SpanID)
}

// optTrace reads the trailing trace-context block: a frame that ends
// before it decodes as the zero Trace, and one that ends inside it is
// truncated.
func optTrace(d *lebin.Reader) Trace {
	if d.Len() == 0 {
		return Trace{}
	}
	return Trace{TraceID: d.U64(), SpanID: d.U64()}
}
