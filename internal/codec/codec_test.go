package codec

import (
	"bytes"
	"math"
	"testing"

	"fedguard/internal/rng"
)

// hardValues are the bit patterns a lossy or normalizing codec would
// mangle: NaN payloads, infinities, signed zeros, denormals.
func hardValues() []float32 {
	return []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.Float32frombits(0x7fc00001), math.Float32frombits(0xffc0dead),
		math.Float32frombits(1), math.Float32frombits(0x007fffff), // denormals
		math.MaxFloat32, math.SmallestNonzeroFloat32,
		1, -1, 0.5, -2.75, 1e-20, -3e30,
	}
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestRoundTripExact(t *testing.T) {
	r := rng.New(1)
	cases := [][]float32{
		nil,
		{},
		{1.5},
		hardValues(),
		make([]float32, 10_000),
	}
	random := make([]float32, 4096)
	r.FillNormal(random, 0, 1)
	cases = append(cases, random)
	mixed := append(append([]float32{}, hardValues()...), random...)
	cases = append(cases, mixed)

	for i, vals := range cases {
		blob := Encode(vals)
		got, err := Decode(blob, 0)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bitsEqual(got, vals) {
			t.Fatalf("case %d: round trip not bit-exact", i)
		}
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	r := rng.New(2)
	base := make([]float32, 2048)
	r.FillNormal(base, 0, 1)
	cur := make([]float32, len(base))
	for i := range cur {
		cur[i] = base[i] + 1e-3*base[i] // nearby values, the delta sweet spot
	}
	blob, err := EncodeDelta(cur, base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDelta(blob, base)
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got, cur) {
		t.Fatal("delta round trip not bit-exact")
	}

	// Identical vectors XOR to all-zero planes: the blob must collapse
	// to a tiny fraction of the raw 4 bytes/value.
	same, err := EncodeDelta(base, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(same) > len(base)/10 {
		t.Fatalf("zero delta encodes to %d bytes for %d values", len(same), len(base))
	}
	if _, err := EncodeDelta(cur, base[:10]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := DecodeDelta(Encode(cur[:10]), base); err == nil {
		t.Fatal("delta count mismatch accepted")
	}
}

func TestCompressesLowEntropyPlanes(t *testing.T) {
	// Same-magnitude weights share their sign/exponent byte; the plane
	// transposition must exploit it even without a delta base.
	vals := make([]float32, 4096)
	r := rng.New(3)
	r.FillNormal(vals, 0, 1)
	for i := range vals {
		vals[i] = float32(math.Abs(float64(vals[i])))*0.5 + 0.5 // all in [0.5, ~2)
	}
	blob := Encode(vals)
	if len(blob) >= 4*len(vals) {
		t.Fatalf("clustered values did not compress: %d bytes for %d raw", len(blob), 4*len(vals))
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	good := Encode(hardValues())
	cases := map[string][]byte{
		"empty":            {},
		"bad varint":       {0x80},
		"truncated plane":  good[:len(good)-3],
		"trailing":         append(append([]byte{}, good...), 0xAB),
		"zero-len token":   {2, 0, 0},
		"overrun repeat":   {2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0},
		"truncated repeat": {4, 9},
		"count only":       {200},
	}
	for name, data := range cases {
		if _, err := Decode(data, 0); err == nil {
			t.Errorf("%s: corrupt blob accepted", name)
		}
	}
	// A nonzero declared count with a valid empty tail must also fail.
	if _, err := Decode([]byte{1}, 0); err == nil {
		t.Error("count without planes accepted")
	}
}

func TestDecodeCap(t *testing.T) {
	blob := Encode(make([]float32, 100))
	if _, err := Decode(blob, 99); err == nil {
		t.Fatal("blob over cap accepted")
	}
	got, err := Decode(blob, 100)
	if err != nil || len(got) != 100 {
		t.Fatalf("blob at cap: %v (%d values)", err, len(got))
	}
}

func TestHash(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{1, 2, 4}
	if Hash(a) == 0 || Hash(b) == 0 || Hash(nil) == 0 {
		t.Fatal("zero digest leaked (reserved for 'no payload')")
	}
	if Hash(a) != Hash([]float32{1, 2, 3}) {
		t.Fatal("hash not deterministic")
	}
	if Hash(a) == Hash(b) {
		t.Fatal("distinct payloads collide")
	}
	// 0.0 and -0.0 are distinct bit patterns and must hash apart.
	if Hash([]float32{0}) == Hash([]float32{float32(math.Copysign(0, -1))}) {
		t.Fatal("signed zeros collide")
	}
}

func TestAppendEncodePreservesPrefix(t *testing.T) {
	prefix := []byte{9, 9, 9}
	blob := appendEncode(append([]byte{}, prefix...), hardValues(), nil)
	if !bytes.Equal(blob[:3], prefix) {
		t.Fatal("prefix clobbered")
	}
	got, err := Decode(blob[3:], 0)
	if err != nil || !bitsEqual(got, hardValues()) {
		t.Fatalf("suffix does not decode: %v", err)
	}
}
