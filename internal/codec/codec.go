// Package codec implements the lossless float32 compressor used by the
// federation wire layer. Parameter vectors are split into four byte
// planes (byte k of every little-endian float32 grouped together), and
// each plane is run-length encoded with varint-framed tokens. The plane
// transposition concentrates the low-entropy bytes — sign/exponent
// bytes of same-magnitude weights, and the long zero runs that XOR
// deltas of consecutive model versions produce — into contiguous runs
// that RLE collapses, while decode(encode(x)) reproduces x bit for bit
// (NaN payloads, negative zeros and denormals included).
//
// The package also provides the XOR-delta primitives the federation
// uses to encode a vector against a reference both endpoints already
// hold, and a content hash for payload deduplication. Nothing here is
// lossy: every transform is an exact bijection on bit patterns.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"fedguard/internal/lebin"
	"fedguard/internal/tensor"
)

// DefaultMaxElems bounds the element count a Decode call will accept
// when the caller does not supply a tighter cap. It matches the wire
// layer's 256 MiB frame bound (64 Mi float32s).
const DefaultMaxElems = 64 << 20

// minRun is the shortest run of equal bytes worth a repeat token: a
// repeat costs up to three token bytes plus the value byte, so shorter
// runs are cheaper left inside a literal.
const minRun = 4

// ErrCorrupt reports a blob that cannot be a codec encoding: truncated
// tokens, a plane that over- or under-runs its length, or trailing
// garbage.
var ErrCorrupt = errors.New("codec: corrupt blob")

// ErrTooLarge reports a blob whose declared element count exceeds the
// decoder's cap.
var ErrTooLarge = errors.New("codec: declared size exceeds limit")

// parallelElems is the input size below which the plane encoder stays
// on the calling goroutine: four pool dispatches cost more than they
// save on small vectors.
const parallelElems = 4096

// Encode compresses vals into a self-describing blob. Empty input
// yields a valid one-byte blob.
func Encode(vals []float32) []byte {
	return appendEncode(nil, vals, nil)
}

// encScratch holds the plane encoder's working set: the four transposed
// byte planes and the four per-plane token streams. Instances are
// pooled, so steady-state encoding allocates only the final blob, and
// they implement tensor.RangeRunner so the planes can be encoded on the
// kernel worker pool without a per-call closure.
type encScratch struct {
	vals, base []float32 // base non-nil selects the fused XOR-delta fill
	plane      [4][]byte
	out        [4][]byte
}

var encPool = sync.Pool{New: func() any { return new(encScratch) }}

// fillPlanes transposes vals (or vals XOR base) into the four byte
// planes in a single pass: one float load feeds four byte stores, which
// beats four separate passes by the cost of re-reading the input.
func (s *encScratch) fillPlanes() {
	n := len(s.vals)
	for p := range s.plane {
		if cap(s.plane[p]) < n {
			s.plane[p] = make([]byte, n)
		}
		s.plane[p] = s.plane[p][:n]
	}
	p0, p1, p2, p3 := s.plane[0], s.plane[1], s.plane[2], s.plane[3]
	vals, base := s.vals, s.base
	i := 0
	if useAVX2 && n >= 32 {
		m := n &^ 31
		var bp *float32
		if base != nil {
			bp = &base[0]
		}
		fillPlanes4(&vals[0], bp, m, &p0[0], &p1[0], &p2[0], &p3[0])
		i = m
	}
	if base == nil {
		for ; i < n; i++ {
			bits := math.Float32bits(vals[i])
			p0[i] = byte(bits)
			p1[i] = byte(bits >> 8)
			p2[i] = byte(bits >> 16)
			p3[i] = byte(bits >> 24)
		}
	} else {
		for ; i < n; i++ {
			bits := math.Float32bits(vals[i]) ^ math.Float32bits(base[i])
			p0[i] = byte(bits)
			p1[i] = byte(bits >> 8)
			p2[i] = byte(bits >> 16)
			p3[i] = byte(bits >> 24)
		}
	}
}

// RunRange RLE-encodes planes [lo, hi) (fillPlanes must have run).
// Planes are independent: each reads only its own plane and writes only
// its own scratch slot, so any partitioning of [0, 4) produces the same
// four token streams.
func (s *encScratch) RunRange(lo, hi int) {
	for p := lo; p < hi; p++ {
		s.out[p] = appendPlane(s.out[p][:0], s.plane[p])
	}
}

// appendEncode is the shared core of the Encode and EncodeDelta
// entry points: with base == nil it encodes vals, otherwise the fused
// XOR delta of the two bit patterns, without materializing a delta
// vector. The planes are encoded into pooled scratch first, then copied
// after dst in one exactly-sized growth, so the output bytes match the
// original serial encoder while a steady-state Encode costs a single
// allocation.
func appendEncode(dst []byte, vals, base []float32) []byte {
	if len(vals) == 0 {
		return binary.AppendUvarint(dst, 0)
	}
	s := encPool.Get().(*encScratch)
	s.vals, s.base = vals, base
	s.fillPlanes()
	if len(vals) >= parallelElems && tensor.Workers() > 1 {
		tensor.ParallelRanges(s, 4)
	} else {
		s.RunRange(0, 4)
	}
	var hdr [binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(hdr[:], uint64(len(vals)))
	need := hn + len(s.out[0]) + len(s.out[1]) + len(s.out[2]) + len(s.out[3])
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, hdr[:hn]...)
	for p := 0; p < 4; p++ {
		dst = append(dst, s.out[p]...)
	}
	s.vals, s.base = nil, nil
	encPool.Put(s)
	return dst
}

// appendPlane RLE-encodes one byte plane: a token stream of
// varint(n<<1|1) + value (repeat runs) and varint(n<<1) + n bytes
// (literals), covering exactly len(plane) bytes. The scan works a word
// at a time in both regimes — literal stretches advance seven bytes per
// adjacent-pair test, runs extend eight bytes per compare — and emits
// exactly the tokens the bytewise scan would.
func appendPlane(dst, plane []byte) []byte {
	n := len(plane)
	litStart := 0
	i := 0
	for i < n {
		r := nextRun4(plane, i)
		if r >= n {
			break
		}
		// Maximal run from r; extend eight bytes per compare while the
		// repeated pattern holds, then finish bytewise.
		b := plane[r]
		j := r + minRun
		rep := uint64(b) * 0x0101010101010101
		for j+8 <= n && binary.LittleEndian.Uint64(plane[j:]) == rep {
			j += 8
		}
		for j < n && plane[j] == b {
			j++
		}
		if litStart < r {
			dst = appendLiteral(dst, plane[litStart:r])
		}
		dst = binary.AppendUvarint(dst, uint64(j-r)<<1|1)
		dst = append(dst, b)
		litStart = j
		i = j
	}
	if litStart < n {
		dst = appendLiteral(dst, plane[litStart:])
	}
	return dst
}

// nextRun4 returns the smallest index k >= i with plane[k] ==
// plane[k+1] == plane[k+2] == plane[k+3], or len(plane) when no run of
// minRun starts at or after i. Emitting a repeat token at exactly the
// first such position reproduces the bytewise reference scan: a
// position whose maximal run reaches minRun is precisely a position
// where a run of four starts.
func nextRun4(plane []byte, i int) int {
	n := len(plane)
	if useAVX2 && i+33 <= n {
		// Either a verified hit (re-found instantly below) or the
		// resume point where the vector scan ran out of width.
		i = nextRun4AVX2(&plane[0], n, i)
	}
	for i+8 <= n {
		// Byte k of y (k < 7) is zero iff plane[i+k] == plane[i+k+1],
		// so byte k of y3 (k <= 4) is zero iff a run of four starts at
		// i+k. The zero-byte trick can flag false positives only above
		// a borrow from a true zero byte, so the lowest flagged byte is
		// always a real run start.
		x := binary.LittleEndian.Uint64(plane[i:])
		y := (x ^ (x >> 8)) | (0xFF << 56)
		y3 := y | (y >> 8) | (y >> 16)
		z := (y3 - 0x0101010101010101) &^ y3 & 0x8080808080808080
		if z == 0 {
			i += 5
			continue
		}
		return i + bits.TrailingZeros64(z)>>3
	}
	for ; i+minRun <= n; i++ {
		if plane[i] == plane[i+1] && plane[i] == plane[i+2] && plane[i] == plane[i+3] {
			return i
		}
	}
	return n
}

func appendLiteral(dst, lit []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(lit))<<1)
	return append(dst, lit...)
}

// Decode reverses Encode. maxElems caps the declared element count
// (<= 0 selects DefaultMaxElems); callers that know the expected vector
// length should pass it so a corrupt or hostile blob cannot demand a
// large allocation. Buffers grow incrementally, so allocation tracks
// the bytes the token stream actually produces.
func Decode(data []byte, maxElems int) ([]float32, error) {
	if maxElems <= 0 {
		maxElems = DefaultMaxElems
	}
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("%w: bad count varint", ErrCorrupt)
	}
	if count > uint64(maxElems) {
		return nil, fmt.Errorf("%w: %d elements, cap %d", ErrTooLarge, count, maxElems)
	}
	data = data[n:]
	if count == 0 {
		if len(data) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data))
		}
		return []float32{}, nil
	}
	var planes [4][]byte
	for p := 0; p < 4; p++ {
		var err error
		planes[p], data, err = decodePlane(data, int(count))
		if err != nil {
			return nil, fmt.Errorf("plane %d: %w", p, err)
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data))
	}
	out := make([]float32, count)
	for i := range out {
		bits := uint32(planes[0][i]) | uint32(planes[1][i])<<8 |
			uint32(planes[2][i])<<16 | uint32(planes[3][i])<<24
		out[i] = math.Float32frombits(bits)
	}
	return out, nil
}

// decodePlane consumes tokens from data until exactly want bytes are
// produced, returning the plane and the remaining input.
func decodePlane(data []byte, want int) (plane, rest []byte, err error) {
	plane = make([]byte, 0, min(want, lebin.AllocChunk))
	for len(plane) < want {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, nil, fmt.Errorf("%w: bad token varint", ErrCorrupt)
		}
		data = data[n:]
		runLen := int(v >> 1)
		if v>>1 > uint64(want-len(plane)) || runLen == 0 {
			return nil, nil, fmt.Errorf("%w: token overruns plane", ErrCorrupt)
		}
		if v&1 == 1 { // repeat run
			if len(data) < 1 {
				return nil, nil, fmt.Errorf("%w: truncated repeat", ErrCorrupt)
			}
			plane = growPlane(plane, runLen)
			b := data[0]
			data = data[1:]
			for i := len(plane) - runLen; i < len(plane); i++ {
				plane[i] = b
			}
		} else { // literal run
			if len(data) < runLen {
				return nil, nil, fmt.Errorf("%w: truncated literal", ErrCorrupt)
			}
			plane = append(plane, data[:runLen]...)
			data = data[runLen:]
		}
	}
	return plane, data, nil
}

// growPlane extends plane by n zero bytes, growing capacity at most
// lebin.AllocChunk beyond the current length so claimed-but-unbacked
// sizes stay cheap (the wire's and the checkpoint's hostile-length
// policy).
func growPlane(plane []byte, n int) []byte {
	for n > 0 {
		k := min(n, lebin.AllocChunk)
		plane = append(plane, make([]byte, k)...)
		n -= k
	}
	return plane
}

// XORInto writes the element-wise XOR of a and b's bit patterns into
// dst (all three must share a length). XOR of two float vectors is the
// delta transform: close values share sign, exponent and leading
// mantissa bits, so the result is zero-heavy and compresses well, and
// applying it twice restores the input exactly.
func XORInto(dst, a, b []float32) {
	_ = dst[len(a)-1]
	_ = b[len(a)-1]
	for i := range a {
		dst[i] = math.Float32frombits(math.Float32bits(a[i]) ^ math.Float32bits(b[i]))
	}
}

// EncodeDelta encodes cur as a compressed XOR delta against base. Both
// sides must hold the identical base for DecodeDelta to reproduce cur.
// The XOR is fused into the plane fill, so no delta vector is
// materialized.
func EncodeDelta(cur, base []float32) ([]byte, error) {
	return AppendEncodeDelta(nil, cur, base)
}

// AppendEncodeDelta appends the XOR-delta encoding of cur against base
// to dst and returns the extended slice. The broadcast cache uses the
// append form to encode into pooled, refcounted buffers.
func AppendEncodeDelta(dst []byte, cur, base []float32) ([]byte, error) {
	if len(cur) != len(base) {
		return nil, fmt.Errorf("codec: delta of %d elements against base of %d", len(cur), len(base))
	}
	return appendEncode(dst, cur, base), nil
}

// DecodeDelta reverses EncodeDelta against the same base. The blob's
// element count must equal len(base).
func DecodeDelta(data []byte, base []float32) ([]float32, error) {
	out, err := Decode(data, max(len(base), 1))
	if err != nil {
		return nil, err
	}
	if len(out) != len(base) {
		return nil, fmt.Errorf("%w: delta has %d elements, base has %d", ErrCorrupt, len(out), len(base))
	}
	XORInto(out, out, base)
	return out, nil
}

// Hash returns a content hash of the vector's bit patterns: FNV-1a 64
// folded over 64-bit blocks (two consecutive little-endian floats per
// block, a lone trailing float as its own block). Folding whole words
// keeps the sequential multiply chain to one step per float pair — the
// per-byte chain of canonical FNV costs more than the rest of the
// compressed client path put together at decoder sizes. The hash is a
// process-local cache key (both federation endpoints recompute it), not
// a wire-format constant. The zero value is reserved as "no payload" by
// the wire protocol, so a zero digest is mapped to 1.
func Hash(vals []float32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	n := len(vals) &^ 1
	for i := 0; i < n; i += 2 {
		h ^= uint64(math.Float32bits(vals[i])) | uint64(math.Float32bits(vals[i+1]))<<32
		h *= prime64
	}
	if len(vals)&1 == 1 {
		h ^= uint64(math.Float32bits(vals[len(vals)-1]))
		h *= prime64
	}
	if h == 0 {
		return 1
	}
	return h
}
