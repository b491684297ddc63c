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
// cannot force a large up-front allocation.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
)

// MaxFrame bounds a single frame's payload (type byte + body). The paper
// model (1.66M parameters ≈ 6.7 MB) fits with a wide margin.
const MaxFrame = 256 << 20

// headerSize is the fixed frame prelude: payload length plus CRC-32C.
const headerSize = 8

// allocChunk bounds how much payload buffer is allocated ahead of the
// bytes actually received, so a corrupt or hostile length prefix costs
// at most one chunk before the truncation is detected.
const allocChunk = 1 << 20

// crcTable is the Castagnoli polynomial table (hardware-accelerated on
// amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

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
// exactly like CapCodec — a silent peer never sees the extra bytes, and
// because the block trails the legacy body, a legacy decoder that does
// receive one simply ignores it.
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
// capability bitmask (CapCodec); zero encodes exactly like the legacy
// frame, and legacy servers ignore the trailing byte when set.
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
		body = appendU32(body, m.ClientID)
		if m.Encodings != 0 {
			body = append(body, m.Encodings)
		}
	case *Setup:
		typ = TypeSetup
		body = encodeSetup(m, body)
	case *TrainRequest:
		typ = TypeTrainRequest
		body = appendU32(body, m.Round)
		body = append(body, boolByte(m.NeedDecoder))
		body = appendF32s(body, m.Global)
		body = appendTrace(body, m.Trace)
	case *Update:
		typ = TypeUpdate
		body = appendU32(body, m.Round)
		body = appendU32(body, m.ClientID)
		body = appendU32(body, m.NumSamples)
		body = appendF32s(body, m.Weights)
		body = appendF32s(body, m.Decoder)
		body = appendU32s(body, m.DecoderClasses)
		body = appendTrace(body, m.Trace)
	case *TrainRequestC:
		typ = TypeTrainRequestC
		body = appendU32(body, m.Round)
		body = append(body, boolByte(m.NeedDecoder))
		body = appendU64(body, m.DecoderHash)
		body = append(body, m.Encoding)
		body = appendU32(body, m.BaseRound)
		body = appendU32(body, m.NumParams)
		body = appendBytes(body, m.Payload)
		body = appendTrace(body, m.Trace)
	case *UpdateC:
		typ = TypeUpdateC
		body = appendU32(body, m.Round)
		body = appendU32(body, m.ClientID)
		body = appendU32(body, m.NumSamples)
		body = append(body, m.Encoding)
		body = appendU32(body, m.NumParams)
		body = appendBytes(body, m.Weights)
		body = appendU64(body, m.DecoderHash)
		body = appendU32(body, m.NumDecoderParams)
		body = appendBytes(body, m.Decoder)
		body = appendU32s(body, m.DecoderClasses)
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
	crc := crc32.Update(crc32.Checksum(fb.header[headerSize:], crcTable), crcTable, body)
	binary.LittleEndian.PutUint32(fb.header[:], uint32(n))
	binary.LittleEndian.PutUint32(fb.header[4:], crc)
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
// the next frame; a bad length prefix returns ErrBadFrame.
func ReadMessage(r io.Reader) (any, error) {
	var head [headerSize]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(head[:4])
	if n == 0 || n > MaxFrame {
		return nil, fmt.Errorf("%w: %d", ErrBadFrame, n)
	}
	wantCRC := binary.LittleEndian.Uint32(head[4:])
	payload, err := readPayload(r, int(n))
	if err != nil {
		return nil, fmt.Errorf("wire: truncated frame: %w", err)
	}
	if got := crc32.Checksum(payload, crcTable); got != wantCRC {
		return nil, fmt.Errorf("%w: got %08x, header says %08x", ErrChecksum, got, wantCRC)
	}
	typ := payload[0]
	body := payload[1:]
	d := &decoder{buf: body}
	switch typ {
	case TypeHello:
		m := &Hello{ClientID: d.u32()}
		m.Encodings = d.optByte()
		return m, d.err
	case TypeSetup:
		return decodeSetup(d)
	case TypeTrainRequest:
		m := &TrainRequest{Round: d.u32()}
		m.NeedDecoder = d.u8() != 0
		m.Global = d.f32s()
		m.Trace = d.optTrace()
		return m, d.err
	case TypeUpdate:
		m := &Update{Round: d.u32(), ClientID: d.u32(), NumSamples: d.u32()}
		m.Weights = d.f32s()
		m.Decoder = d.f32s()
		m.DecoderClasses = d.u32s()
		m.Trace = d.optTrace()
		return m, d.err
	case TypeTrainRequestC:
		m := &TrainRequestC{Round: d.u32()}
		m.NeedDecoder = d.u8() != 0
		m.DecoderHash = d.u64()
		m.Encoding = d.u8()
		m.BaseRound = d.u32()
		m.NumParams = d.u32()
		m.Payload = d.bytes()
		m.Trace = d.optTrace()
		return m, d.err
	case TypeUpdateC:
		m := &UpdateC{Round: d.u32(), ClientID: d.u32(), NumSamples: d.u32()}
		m.Encoding = d.u8()
		m.NumParams = d.u32()
		m.Weights = d.bytes()
		m.DecoderHash = d.u64()
		m.NumDecoderParams = d.u32()
		m.Decoder = d.bytes()
		m.DecoderClasses = d.u32s()
		m.Trace = d.optTrace()
		return m, d.err
	case TypeShutdown:
		return &Shutdown{}, nil
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", typ)
	}
}

// readPayload reads exactly n payload bytes, growing the buffer at most
// allocChunk ahead of the bytes actually received. A frame header that
// lies about its length therefore fails with a truncation error after a
// bounded allocation instead of reserving the claimed size up front.
func readPayload(r io.Reader, n int) ([]byte, error) {
	if n <= allocChunk {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf := make([]byte, 0, allocChunk)
	for len(buf) < n {
		k := allocChunk
		if rest := n - len(buf); rest < k {
			k = rest
		}
		off := len(buf)
		buf = append(buf, make([]byte, k)...)
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func encodeSetup(m *Setup, dst []byte) []byte {
	b := appendU64(dst, m.Seed)
	b = appendU64(b, m.DataSeed)
	b = appendU32(b, m.TrainSize)
	b = appendU32s(b, m.Indices)
	b = appendString(b, m.ArchName)
	b = appendU32(b, m.Epochs)
	b = appendU32(b, m.BatchSize)
	b = appendF64(b, m.LR)
	b = appendF64(b, m.Momentum)
	b = appendU32(b, m.CVAEHidden)
	b = appendU32(b, m.CVAELatent)
	b = appendU32(b, m.CVAEEpochs)
	b = appendU32(b, m.CVAEBatch)
	b = appendF64(b, m.CVAELR)
	b = appendU32(b, m.NumClasses)
	b = appendString(b, m.Attack)
	b = appendU64(b, m.AttackSeed)
	if m.Encodings != 0 {
		b = append(b, m.Encodings)
	}
	return b
}

func decodeSetup(d *decoder) (*Setup, error) {
	m := &Setup{}
	m.Seed = d.u64()
	m.DataSeed = d.u64()
	m.TrainSize = d.u32()
	m.Indices = d.u32s()
	m.ArchName = d.str()
	m.Epochs = d.u32()
	m.BatchSize = d.u32()
	m.LR = d.f64()
	m.Momentum = d.f64()
	m.CVAEHidden = d.u32()
	m.CVAELatent = d.u32()
	m.CVAEEpochs = d.u32()
	m.CVAEBatch = d.u32()
	m.CVAELR = d.f64()
	m.NumClasses = d.u32()
	m.Attack = d.str()
	m.AttackSeed = d.u64()
	m.Encodings = d.optByte()
	return m, d.err
}

// --- primitive encoders ------------------------------------------------

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

func appendString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendU32s(b []byte, vs []uint32) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendU32(b, v)
	}
	return b
}

func appendBytes(b []byte, vs []byte) []byte {
	b = appendU32(b, uint32(len(vs)))
	return append(b, vs...)
}

// appendTrace appends the 16-byte trailing trace-context block, or
// nothing when the context is the zero value — keeping untraced frames
// byte-identical to the golden legacy format.
func appendTrace(b []byte, t Trace) []byte {
	if !t.Valid() {
		return b
	}
	b = appendU64(b, t.TraceID)
	return appendU64(b, t.SpanID)
}

func appendF32s(b []byte, vs []float32) []byte {
	b = appendU32(b, uint32(len(vs)))
	off := len(b)
	b = append(b, make([]byte, 4*len(vs))...)
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[off+4*i:], math.Float32bits(v))
	}
	return b
}

// --- primitive decoder --------------------------------------------------

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.err = io.ErrUnexpectedEOF
		return nil
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// optByte reads a trailing optional byte: absent (no bytes left) decodes
// as zero, which is how capability fields stay byte-compatible with
// legacy frames.
func (d *decoder) optByte() byte {
	if d.err != nil || len(d.buf) == 0 {
		return 0
	}
	return d.u8()
}

// optTrace reads a trailing optional 16-byte trace-context block:
// absent decodes as the zero Trace, which is how traced peers stay
// byte-compatible with legacy frames (which simply end earlier).
func (d *decoder) optTrace() Trace {
	if d.err != nil || len(d.buf) < 16 {
		return Trace{}
	}
	return Trace{TraceID: d.u64(), SpanID: d.u64()}
}

// bytes reads a u32-length-prefixed byte string, sharing the frame's
// backing array.
func (d *decoder) bytes() []byte {
	n := d.u32()
	if d.err != nil || uint64(n) > uint64(len(d.buf)) {
		if d.err == nil {
			d.err = io.ErrUnexpectedEOF
		}
		return nil
	}
	return d.take(int(n))
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) f64() float64 {
	return math.Float64frombits(d.u64())
}

func (d *decoder) str() string {
	n := d.u32()
	if d.err != nil || n > uint32(len(d.buf)) {
		if d.err == nil {
			d.err = io.ErrUnexpectedEOF
		}
		return ""
	}
	return string(d.take(int(n)))
}

func (d *decoder) u32s() []uint32 {
	n := d.u32()
	if d.err != nil || uint64(n)*4 > uint64(len(d.buf)) {
		if d.err == nil {
			d.err = io.ErrUnexpectedEOF
		}
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = d.u32()
	}
	return out
}

func (d *decoder) f32s() []float32 {
	n := d.u32()
	if d.err != nil || uint64(n)*4 > uint64(len(d.buf)) {
		if d.err == nil {
			d.err = io.ErrUnexpectedEOF
		}
		return nil
	}
	raw := d.take(int(n) * 4)
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}
