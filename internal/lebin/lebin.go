// Package lebin is the little-endian binary record codec the wire frames
// (package wire) and the checkpoint files (package persist) share: append
// encoders for fixed-width scalars and u32-length-prefixed strings and
// vectors, a bounds-checked Reader, the chunked ReadFull that bounds what
// a hostile length prefix can allocate, and the CRC-32C both formats
// checksum with. Each record format keeps only its field order; how a
// field becomes bytes, and what an untrusted count may cost, is decided
// here once.
package lebin

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// AllocChunk bounds how far any buffer grows ahead of the bytes actually
// received or decoded, so a corrupt or hostile length claim costs at most
// one chunk before the shortfall is detected.
const AllocChunk = 1 << 20

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum extends the CRC-32C crc with p; Checksum(0, p) is p's checksum.
func Checksum(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }

// ReadFull reads exactly n bytes from r, growing the buffer at most
// AllocChunk ahead of the bytes actually received: a length prefix that
// lies fails with a truncation error after a bounded allocation instead
// of reserving the claimed size up front. Errors are io.ReadFull's.
func ReadFull(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, AllocChunk))
	for len(buf) < n {
		off := len(buf)
		buf = append(buf, make([]byte, min(n-off, AllocChunk))...)
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// --- encoders: each appends one field to b and returns the extended slice.

// AppendBool appends v as one byte, 1 or 0.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func AppendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

func AppendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// AppendF64 appends v's IEEE-754 bit pattern.
func AppendF64(b []byte, v float64) []byte { return AppendU64(b, math.Float64bits(v)) }

// AppendStr appends a u32 length and s's bytes.
func AppendStr(b []byte, s string) []byte {
	return append(AppendU32(b, uint32(len(s))), s...)
}

// AppendBytes appends a u32 length and vs.
func AppendBytes(b []byte, vs []byte) []byte {
	return append(AppendU32(b, uint32(len(vs))), vs...)
}

// AppendF32s appends a u32 count and the floats' bit patterns.
func AppendF32s(b []byte, vs []float32) []byte {
	return AppendFloats(AppendU32(b, uint32(len(vs))), vs)
}

// AppendFloats appends the floats' bit patterns without a count. The
// destination grows once, to its final size, before the floats are
// stored: a multi-megabyte parameter vector costs one allocation, not an
// append's doubling series.
func AppendFloats(b []byte, vs []float32) []byte {
	b = slices.Grow(b, 4*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// AppendU32s appends a u32 count and the values.
func AppendU32s(b []byte, vs []uint32) []byte { return appendWords(b, vs) }

// AppendInts appends a u32 count and each value truncated to 32 bits;
// Reader.Ints sign-extends them back.
func AppendInts(b []byte, vs []int) []byte { return appendWords(b, vs) }

func appendWords[T ~uint32 | ~int](b []byte, vs []T) []byte {
	b = AppendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = AppendU32(b, uint32(v))
	}
	return b
}

// --- decoder

// Reader decodes the fields of a byte slice in order. Every count is
// checked against the bytes left before anything is allocated for it, so
// no input, however crafted, makes a decode allocate more than the input
// holds. The first failure is sticky: every later read returns a zero
// value, Len reports 0, and End returns the failure. Errors wrap
// io.ErrUnexpectedEOF.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b. Byte strings it decodes alias b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Len returns the number of bytes not yet decoded.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// End returns the Reader's failure, or an error if any bytes are left:
// a record must end exactly after its last field.
func (r *Reader) End() error {
	if r.err == nil && r.Len() > 0 {
		return fmt.Errorf("lebin: %d trailing bytes", r.Len())
	}
	return r.err
}

func (r *Reader) fail(format string, args ...any) {
	r.err = fmt.Errorf("lebin: "+format+": %w", append(args, io.ErrUnexpectedEOF)...)
	r.off = len(r.buf)
}

// take consumes the next n bytes; it returns nil after any failure.
func (r *Reader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Len()) {
		r.fail("truncated at offset %d: need %d bytes, %d left", r.off, n, r.Len())
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

func (r *Reader) U8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool decodes a byte; any nonzero value is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Str decodes a u32 length and that many bytes, copied.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Bytes decodes a u32 length and that many bytes, aliasing the input.
func (r *Reader) Bytes() []byte { return r.take(uint64(r.U32())) }

// Count decodes a u32 element count and checks that that many elements
// of at least minSize bytes each fit in the bytes left, so a slice of
// structs sized by it stays within the input.
func (r *Reader) Count(minSize int) int {
	n := r.U32()
	if r.err == nil && uint64(n)*uint64(minSize) > uint64(r.Len()) {
		r.fail("count %d of ≥ %d-byte elements exceeds the %d bytes left", n, minSize, r.Len())
		return 0
	}
	return int(n)
}

// F32s decodes a u32 count and that many floats. A zero count decodes
// as nil, so a decoded record compares equal to one built with nil
// slices.
func (r *Reader) F32s() []float32 { return r.Floats(r.U32()) }

// Floats decodes n floats written without a count (AppendFloats), in
// one allocation; n == 0 decodes as nil.
func (r *Reader) Floats(n uint32) []float32 {
	raw := r.take(4 * uint64(n))
	if len(raw) == 0 {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

// U32s decodes a u32 count and that many values; zero decodes as nil.
func (r *Reader) U32s() []uint32 {
	raw := r.words()
	if len(raw) == 0 {
		return nil
	}
	out := make([]uint32, len(raw)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}
	return out
}

// Ints decodes what AppendInts wrote, sign-extending each value; zero
// elements decode as nil.
func (r *Reader) Ints() []int {
	raw := r.words()
	if len(raw) == 0 {
		return nil
	}
	out := make([]int, len(raw)/4)
	for i := range out {
		out[i] = int(int32(binary.LittleEndian.Uint32(raw[4*i:])))
	}
	return out
}

// words decodes a u32 count and takes that many 4-byte words.
func (r *Reader) words() []byte { return r.take(4 * uint64(r.U32())) }
