package lebin

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// TestFieldsRoundTrip: every encoder's field reads back through its
// Reader method, in order, and the record then ends exactly.
func TestFieldsRoundTrip(t *testing.T) {
	floats := []float32{1.5, float32(math.Inf(-1)), math.Float32frombits(0x7fc00001), float32(math.Copysign(0, -1))}
	var b []byte
	b = AppendBool(b, true)
	b = AppendU32(b, 0xdeadbeef)
	b = AppendU64(b, 1<<63|5)
	b = AppendF64(b, -2.25)
	b = AppendStr(b, "fedguard")
	b = AppendBytes(b, []byte{9, 8, 7})
	b = AppendF32s(b, floats)
	b = AppendFloats(b, floats[:2])
	b = AppendU32s(b, []uint32{3, 1 << 31})
	b = AppendInts(b, []int{-1, 7, math.MinInt32})
	b = AppendF32s(b, nil)

	r := NewReader(b)
	if !r.Bool() || r.U32() != 0xdeadbeef || r.U64() != 1<<63|5 || r.F64() != -2.25 || r.Str() != "fedguard" {
		t.Fatal("scalar fields did not read back")
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Fatalf("Bytes = %v", got)
	}
	for _, want := range [][]float32{floats, floats[:2]} {
		var got []float32
		if len(want) == len(floats) {
			got = r.F32s()
		} else {
			got = r.Floats(uint32(len(want)))
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("float %d = %08x, want the bits %08x", i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
	if got := r.U32s(); !reflect.DeepEqual(got, []uint32{3, 1 << 31}) {
		t.Fatalf("U32s = %v", got)
	}
	if got := r.Ints(); !reflect.DeepEqual(got, []int{-1, 7, math.MinInt32}) {
		t.Fatalf("Ints = %v, want the values sign-extended back", got)
	}
	if got := r.F32s(); got != nil {
		t.Fatalf("an empty vector decoded as %v, want nil", got)
	}
	if err := r.End(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderCountsBeforeAllocating: a count that claims more than the
// bytes left fails before anything is allocated for it, whatever the
// field: a hostile length prefix costs nothing but the error.
func TestReaderCountsBeforeAllocating(t *testing.T) {
	claim := func(n uint32) []byte { return append(AppendU32(nil, n), 1, 2, 3, 4, 5, 6, 7, 8) }
	for name, read := range map[string]func(*Reader){
		"F32s":   func(r *Reader) { r.F32s() },
		"Floats": func(r *Reader) { r.U32(); r.Floats(1 << 30) },
		"Bytes":  func(r *Reader) { r.Bytes() },
		"Str":    func(r *Reader) { r.Str() },
		"U32s":   func(r *Reader) { r.U32s() },
		"Ints":   func(r *Reader) { r.Ints() },
		"Count":  func(r *Reader) { r.Count(1) },
	} {
		t.Run(name, func(t *testing.T) {
			r := NewReader(claim(1 << 30))
			before := totalAlloc()
			read(r)
			if used := totalAlloc() - before; used > 4<<10 {
				t.Fatalf("a claim of 2^30 elements allocated %d bytes", used)
			}
			if err := r.End(); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("End = %v, want a truncation", err)
			}
		})
	}
	// Count holds each element to its minimum size: two 8-byte elements
	// do not fit in the 8 bytes left.
	if r := NewReader(claim(2)); r.Count(8) != 0 || r.End() == nil {
		t.Fatal("Count(8) accepted 2 elements over 8 bytes")
	}
	if r := NewReader(claim(1)); r.Count(8) != 1 {
		t.Fatal("Count(8) refused 1 element over 8 bytes")
	}
}

// TestReaderFailureIsSticky: after the first failure every read returns
// a zero value, nothing is left, and End reports that first failure.
func TestReaderFailureIsSticky(t *testing.T) {
	r := NewReader(AppendU32(nil, 7)[:3])
	if r.U32() != 0 {
		t.Fatal("a truncated U32 read a value")
	}
	first := r.End()
	if r.U64() != 0 || r.Bool() || r.F32s() != nil || r.Str() != "" || r.Len() != 0 {
		t.Fatal("a read after the failure returned data")
	}
	if err := r.End(); err == nil || err.Error() != first.Error() || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("End = %v, want the first failure %v", err, first)
	}
}

// TestReaderEndRejectsTrailingBytes: a record ends exactly after its
// last field.
func TestReaderEndRejectsTrailingBytes(t *testing.T) {
	r := NewReader(append(AppendU32(nil, 1), 0xA5))
	r.U32()
	if err := r.End(); err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("End = %v, want a trailing-bytes error", err)
	}
}

// TestReadFullGrowsByChunks: ReadFull reads across chunk boundaries
// intact, and a length that lies about a short stream fails after at
// most two AllocChunk growths instead of reserving the claim.
func TestReadFullGrowsByChunks(t *testing.T) {
	want := make([]byte, 2*AllocChunk+17)
	for i := range want {
		want[i] = byte(i * 7)
	}
	got, err := ReadFull(bytes.NewReader(want), len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("reading %d bytes: err %v, equal %v", len(want), err, bytes.Equal(got, want))
	}

	before := totalAlloc()
	if _, err := ReadFull(bytes.NewReader([]byte{1, 2, 3}), 256<<20); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a 256 MB claim over 3 bytes: err = %v", err)
	}
	// 64 KiB of slack: the race runtime pads large allocations.
	if used, limit := totalAlloc()-before, int64(2*AllocChunk+64<<10); used > limit {
		t.Fatalf("a 256 MB claim allocated %d bytes; want ≤ %d", used, limit)
	}
}

// TestChecksumIsCRC32C pins the polynomial: the CRC-32C check value of
// "123456789", and that extending a checksum equals one pass.
func TestChecksumIsCRC32C(t *testing.T) {
	msg := []byte("123456789")
	if got := Checksum(0, msg); got != 0xe3069283 {
		t.Fatalf("Checksum = %08x, want CRC-32C's e3069283", got)
	}
	if Checksum(Checksum(0, msg[:4]), msg[4:]) != Checksum(0, msg) {
		t.Fatal("an extended checksum differs from one pass")
	}
}

func totalAlloc() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc)
}
