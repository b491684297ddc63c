package dataset

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"fedguard/internal/rng"
)

// noiseless is DefaultGenOptions without pixel noise: the walk then
// skips a sample with five uniform draws and no Gaussian ones.
func noiseless() GenOptions {
	o := DefaultGenOptions()
	o.NoiseStd = 0
	return o
}

// subset returns a new Dataset holding copies of the selected examples:
// the gather GenerateSubset must reproduce without rendering the rest.
func subset(d *Dataset, indices []int) *Dataset {
	sz := d.ImageSize()
	out := &Dataset{X: make([]float32, len(indices)*sz), Labels: make([]int, len(indices)), H: d.H, W: d.W}
	for bi, i := range indices {
		copy(out.X[bi*sz:(bi+1)*sz], d.X[i*sz:(i+1)*sz])
		out.Labels[bi] = d.Labels[i]
	}
	return out
}

// hashDataset is FNV-64a over every pixel's bit pattern, then every
// label.
func hashDataset(d *Dataset) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range d.X {
		binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v))
		h.Write(b[:4])
	}
	for _, l := range d.Labels {
		binary.LittleEndian.PutUint64(b[:], uint64(l))
		h.Write(b[:])
	}
	return h.Sum64()
}

// sameDataset fails the test unless got and want agree in shape, labels
// and every pixel's bits.
func sameDataset(t testing.TB, got, want *Dataset) {
	t.Helper()
	if got.H != want.H || got.W != want.W || got.Len() != want.Len() || len(got.X) != len(want.X) {
		t.Fatalf("shape: got %d×%d×%d (%d px), want %d×%d×%d (%d px)",
			got.Len(), got.H, got.W, len(got.X), want.Len(), want.H, want.W, len(want.X))
	}
	for i := range want.Labels {
		if got.Labels[i] != want.Labels[i] {
			t.Fatalf("label %d = %d, want %d", i, got.Labels[i], want.Labels[i])
		}
	}
	for i := range want.X {
		if math.Float32bits(got.X[i]) != math.Float32bits(want.X[i]) {
			t.Fatalf("pixel %d of example %d = %v, want %v", i%want.ImageSize(), i/want.ImageSize(), got.X[i], want.X[i])
		}
	}
}

// TestGenerateGolden pins Generate's bytes: the constants were taken at
// the commit before the walk was shared with GenerateSubset.
func TestGenerateGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts GenOptions
		want uint64
	}{
		{"default", DefaultGenOptions(), 0x03e2198ecb2e4fdd},
		{"noiseless", noiseless(), 0x9c58f04be57ec626},
	} {
		if got := hashDataset(Generate(300, tc.opts, rng.New(7))); got != tc.want {
			t.Errorf("%s: Generate(300, seed 7) hashes to %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// TestSkipDigitMatchesRenderDigit is the tripwire for an edit to
// RenderDigit's draws: skipDigit must leave the generator exactly where
// a rendering does, whatever the class, with and without pixel noise.
func TestSkipDigitMatchesRenderDigit(t *testing.T) {
	img := make([]float32, ImageH*ImageW)
	for _, opts := range []GenOptions{DefaultGenOptions(), noiseless()} {
		for class := 0; class < NumClasses; class++ {
			rendered, skipped := rng.New(uint64(class)+1), rng.New(uint64(class)+1)
			// Twice, so the second sample starts from whatever Box–Muller
			// cache the first one left.
			for i := 0; i < 2; i++ {
				RenderDigit(img, class, opts, rendered)
				skipDigit(opts, skipped)
				if rendered.State() != skipped.State() {
					t.Fatalf("class %d noise %v sample %d: skipDigit leaves %+v, RenderDigit %+v",
						class, opts.NoiseStd, i, skipped.State(), rendered.State())
				}
			}
		}
	}
}

func TestGenerateSubsetMatchesSubset(t *testing.T) {
	const n = 257
	pick := rng.New(99)
	subsets := map[string][]int{
		"empty":     {},
		"full":      Range(n),
		"last-only": {n - 1},
		"first":     {0},
		"random":    pick.Sample(n, 40),
		"unsorted":  {200, 3, 256, 17, 100, 0, 99},
		"reversed":  reversed(Range(n)),
	}
	for _, opts := range []GenOptions{DefaultGenOptions(), noiseless()} {
		full := Generate(n, opts, rng.New(5))
		for name, idx := range subsets {
			t.Run(fmt.Sprintf("%s/noise=%v", name, opts.NoiseStd), func(t *testing.T) {
				got, err := GenerateSubset(n, opts, rng.New(5), idx)
				if err != nil {
					t.Fatal(err)
				}
				sameDataset(t, got, subset(full, idx))
			})
		}
	}
}

func reversed(a []int) []int {
	for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
		a[i], a[j] = a[j], a[i]
	}
	return a
}

// TestGenerateSubsetFullLeavesSameState: with every sample wanted the
// walk is Generate's, to the generator's last draw.
func TestGenerateSubsetFullLeavesSameState(t *testing.T) {
	a, b := rng.New(8), rng.New(8)
	Generate(40, DefaultGenOptions(), a)
	if _, err := GenerateSubset(40, DefaultGenOptions(), b, Range(40)); err != nil {
		t.Fatal(err)
	}
	if a.State() != b.State() {
		t.Fatalf("full subset leaves %+v, Generate %+v", b.State(), a.State())
	}
}

func TestGenerateSubsetRejectsBadIndices(t *testing.T) {
	for name, idx := range map[string][]int{
		"negative":    {3, -1},
		"at n":        {0, 50},
		"beyond n":    {1 << 20},
		"duplicate":   {7, 8, 7},
		"more than n": append(Range(50), 0),
	} {
		r := rng.New(1)
		before := r.State()
		d, err := GenerateSubset(50, DefaultGenOptions(), r, idx)
		if err == nil || d != nil {
			t.Errorf("%s: got (%v, %v), want an error", name, d, err)
		}
		if r.State() != before {
			t.Errorf("%s: rejected subset drew from the generator", name)
		}
	}
}

func TestGenerateLabelsMatchesGenerate(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 11, 300} {
		want := Generate(n, DefaultGenOptions(), rng.New(21)).Labels
		got := GenerateLabels(n, rng.New(21))
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d labels, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: label %d = %d, want %d", n, i, got[i], want[i])
			}
		}
	}
}

// FuzzGenerateSubset draws the wanted set from a bit mask: the compact
// dataset must equal the subset of Generate(...), and skipping k Gaussian
// draws then drawing one must equal drawing k+1.
func FuzzGenerateSubset(f *testing.F) {
	f.Add(uint64(1), uint16(0), []byte{})
	f.Add(uint64(7), uint16(33), []byte{0xff, 0x00, 0xa5, 0x01})
	f.Add(uint64(11), uint16(256), []byte{0x80})
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, mask []byte) {
		n := int(size) % 257
		var idx []int
		for i := 0; i < n && i/8 < len(mask); i++ {
			if mask[i/8]>>(i%8)&1 == 1 {
				idx = append(idx, i)
			}
		}
		// Shuffled, so unsorted index lists are covered.
		rng.New(seed^0xabcdef).Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		opts := DefaultGenOptions()
		if seed&1 == 1 {
			opts.NoiseStd = 0
		}
		got, err := GenerateSubset(n, opts, rng.New(seed), idx)
		if err != nil {
			t.Fatal(err)
		}
		sameDataset(t, got, subset(Generate(n, opts, rng.New(seed)), idx))

		k := len(mask)
		drawn, skipped := rng.New(seed), rng.New(seed)
		for i := 0; i < k; i++ {
			drawn.NormFloat64()
		}
		skipped.SkipNormFloat64(k)
		if g, w := skipped.NormFloat64(), drawn.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("skip %d then draw = %v, %d draws = %v", k, g, k+1, w)
		}
	})
}
