package tensor

import (
	"fmt"
	"math"
	"testing"

	"fedguard/internal/rng"
)

// naiveMatMul is the reference triple loop: each output element is one
// float32 accumulator updated in ascending-p order. The production
// kernels must match it bit-for-bit (see the summation-order contract in
// matmul.go).
func naiveMatMul(dst, a, b *Tensor) {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(1)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for p := 0; p < k; p++ {
				acc += a.Data[i*k+p] * b.Data[p*n+j]
			}
			dst.Data[i*n+j] = acc
		}
	}
}

func naiveMatMulT(dst, a, b *Tensor) {
	m, k, n := a.Dim(0), a.Dim(1), b.Dim(0)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for p := 0; p < k; p++ {
				acc += a.Data[i*k+p] * b.Data[j*k+p]
			}
			dst.Data[i*n+j] = acc
		}
	}
}

func naiveMatMulTA(dst, a, b *Tensor) {
	k, m, n := a.Dim(0), a.Dim(1), b.Dim(1)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for p := 0; p < k; p++ {
				acc += a.Data[p*m+i] * b.Data[p*n+j]
			}
			dst.Data[i*n+j] = acc
		}
	}
}

func requireBitEqual(t *testing.T, op string, got, want *Tensor) {
	t.Helper()
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d differs: got %v, want %v", op, i, got.Data[i], want.Data[i])
		}
	}
}

// TestKernelEquivalence drives the blocked kernels over randomized odd
// shapes (hitting every remainder path of the 4×4 tiles) at worker
// counts 1 (serial) and 4 (parallel) and demands exact float32 equality
// with the naive reference — same summation order, same bits.
func TestKernelEquivalence(t *testing.T) {
	defer SetWorkers(Workers())
	r := rng.New(0xb10cced)
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 7}, {4, 4, 4}, {5, 9, 6}, {8, 25, 32},
		{17, 33, 29}, {64, 64, 64}, {37, 100, 41}, {128, 31, 57},
	}
	for _, workers := range []int{1, 4} {
		SetWorkers(workers)
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			t.Run(fmt.Sprintf("w%d_%dx%dx%d", workers, m, k, n), func(t *testing.T) {
				a := New(m, k)
				b := New(k, n)
				bt := New(n, k)
				at := New(k, m)
				r.FillNormal(a.Data, 0, 1)
				r.FillNormal(b.Data, 0, 1)
				r.FillNormal(bt.Data, 0, 1)
				r.FillNormal(at.Data, 0, 1)

				got, want := New(m, n), New(m, n)
				MatMul(got, a, b)
				naiveMatMul(want, a, b)
				requireBitEqual(t, "MatMul", got, want)

				MatMulT(got, a, bt)
				naiveMatMulT(want, a, bt)
				requireBitEqual(t, "MatMulT", got, want)

				MatMulTA(got, at, b)
				naiveMatMulTA(want, at, b)
				requireBitEqual(t, "MatMulTA", got, want)

				// Acc variants: dst + product must equal computing the
				// product separately and adding it with one addition per
				// element.
				init := New(m, n)
				r.FillNormal(init.Data, 0, 1)
				acc := clone(init)
				MatMulTAAcc(acc, at, b)
				for i := range want.Data {
					want.Data[i] = init.Data[i] + want.Data[i]
				}
				requireBitEqual(t, "MatMulTAAcc", acc, want)

				naiveMatMul(want, a, b)
				acc = clone(init)
				MatMulAcc(acc, a, b)
				for i := range want.Data {
					want.Data[i] = init.Data[i] + want.Data[i]
				}
				requireBitEqual(t, "MatMulAcc", acc, want)
			})
		}
	}
}

// TestKernelEquivalenceSparse repeats the comparison with heavily zeroed
// operands (the ReLU-sparse regime the seed kernels special-cased with a
// zero-skip). Bit-identity with the dense-order reference must hold.
func TestKernelEquivalenceSparse(t *testing.T) {
	r := rng.New(0x5a123)
	m, k, n := 23, 50, 19
	a := New(m, k)
	b := New(k, n)
	r.FillNormal(a.Data, 0, 1)
	r.FillNormal(b.Data, 0, 1)
	for i := range a.Data {
		if r.Float64() < 0.7 {
			a.Data[i] = 0
		}
	}
	for i := range b.Data {
		if r.Float64() < 0.5 {
			b.Data[i] = 0
		}
	}
	got, want := New(m, n), New(m, n)
	MatMul(got, a, b)
	naiveMatMul(want, a, b)
	requireBitEqual(t, "MatMul/sparse", got, want)
}

// TestTileKernelTable is the bitwise table for the register-tiled AVX
// path, for all four a@b-shaped entry points against the naive
// ascending-p loop. The narrow block has every m remainder of the 4- and
// 8-row tiles, k of one, the two conv fan-ins, and n up to the wide
// split plus a scalar column tail (25). The wide block has the CVAE's
// 256- and 794-column products (794 = 49 sixteen-column blocks, or 24
// thirty-two- and one sixteen-column block with AVX-512, then one
// eight-column block and two scalar columns), a k that is one batch and
// one hidden layer, and m on both sides of a tile and of the
// 32-row batch. Left operands are dense, which the dispatcher sends to
// the tiles at any width, or mostly zero, which from 32 columns and
// without AVX-512 it sends to the row kernel. The tiles multiply zero
// operands where the row and scalar kernels skip them; the table proves
// that is the same bits on finite data, whichever path a product or a
// worker's row range takes. A third block holds the transposed-batch identity of the dense
// layers (checkTransposedBatch) at their shapes and batch sizes.
func TestTileKernelTable(t *testing.T) {
	defer SetWorkers(Workers())
	r := rng.New(0x711e5)
	for _, workers := range []int{1, 3} {
		SetWorkers(workers)
		for _, tab := range []struct {
			ms, ks, ns []int
			zeroFrac   float64
		}{
			{[]int{1, 3, 4, 5, 7, 8, 9, 33}, []int{1, 25, 200}, []int{8, 16, 24, 32, 40, 25}, 0.9},
			{[]int{1, 3, 4, 5, 32, 33}, []int{1, 32, 256}, []int{32, 40, 64, 256, 794}, 0.8},
		} {
			for _, m := range tab.ms {
				for _, k := range tab.ks {
					for _, n := range tab.ns {
						for _, zeroFrac := range []float64{0, tab.zeroFrac} {
							name := fmt.Sprintf("w%d_%dx%dx%d_z%.1f", workers, m, k, n, zeroFrac)
							checkProductForms(t, r, name, m, k, n, zeroFrac)
						}
					}
				}
			}
		}
		// The dense layers' shapes (CVAE decoder and encoder, latent
		// heads, classifier head) at every batch the system runs: both
		// sides of a lane group, the 4-row training tail, the audit's
		// 6-sample blocks and its 100-row set.
		for _, io := range [][2]int{{12, 256}, {256, 794}, {794, 256}, {256, 2}, {256, 64}, {64, 10}} {
			for _, fill := range []string{"dense", "sparse", "special"} {
				w := New(io[1], io[0])
				fillOperand(r, w.Data, fill)
				for _, b := range []int{1, 3, 4, 6, 7, 8, 9, 31, 32, 33, 100} {
					name := fmt.Sprintf("w%d_%d->%d_b%d_%s", workers, io[0], io[1], b, fill)
					checkTransposedBatch(t, r, name, w, b, fill)
				}
			}
		}
	}
}

// TestWideTileKernel holds the 4×32 ZMM tile to the 4×16 YMM tile and to
// the scalar reference loops, bit for bit, in both addressings (a@b and
// the strided aᵀ@b) with acc off and on. The row counts 1–9 and 32 put
// rows into 4-row tiles, 8×8 tiles and the row kernel's tail; the column
// counts leave 16-, 8- and scalar-column remainders after the 32-column
// blocks. Operands carry exact zeros, −0 and denormals, and a zero-heavy
// left operand sends wide products to the row kernel on the YMM side,
// so the ZMM tile is held to the row kernel's bits there as well.
func TestWideTileKernel(t *testing.T) {
	if useAVX512 && !useAVX {
		t.Fatal("useAVX512 is set without useAVX")
	}
	if !useAVX512 {
		t.Skip("no 512-bit tile to compare: the CPU lacks AVX512F or the build is purego")
	}
	defer func() { useAVX512 = true }()
	r := rng.New(0x2a512)
	type form struct {
		name string
		run  func(dst, a, at, b *Tensor)
	}
	forms := []form{
		{"MatMul", func(dst, a, _, b *Tensor) { MatMul(dst, a, b) }},
		{"MatMulAcc", func(dst, a, _, b *Tensor) { MatMulAcc(dst, a, b) }},
		{"MatMulTA", func(dst, _, at, b *Tensor) { MatMulTA(dst, at, b) }},
		{"MatMulTAAcc", func(dst, _, at, b *Tensor) { MatMulTAAcc(dst, at, b) }},
	}
	bits := func(x *Tensor) []uint32 {
		out := make([]uint32, x.Len())
		for i, v := range x.Data {
			out[i] = math.Float32bits(v)
		}
		return out
	}
	for _, n := range []int{8, 16, 24, 32, 40, 48, 64, 96, 256, 792, 794} {
		for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 32} {
			for _, k := range []int{1, 25, 256} {
				for _, fill := range []string{"special", "sparse"} {
					a, at, b, init := New(m, k), New(k, m), New(k, n), New(m, n)
					fillOperand(r, a.Data, fill)
					fillOperand(r, b.Data, "special")
					fillOperand(r, init.Data, "special")
					if fill == "special" {
						for i := range a.Data {
							if r.Float64() < 0.3 {
								a.Data[i] = 0
							}
						}
					}
					for i := 0; i < m; i++ {
						for p := 0; p < k; p++ {
							at.Data[p*m+i] = a.Data[i*k+p]
						}
					}
					want := New(m, n)
					naiveMatMul(want, a, b)
					sum := New(m, n)
					for i := range sum.Data {
						sum.Data[i] = init.Data[i] + want.Data[i]
					}
					for _, f := range forms {
						ref := want
						if f.name == "MatMulAcc" || f.name == "MatMulTAAcc" {
							ref = sum
						}
						var got [2][]uint32
						for w, wide := range []bool{true, false} {
							useAVX512 = wide
							dst := clone(init)
							f.run(dst, a, at, b)
							got[w] = bits(dst)
						}
						useAVX512 = true
						for i, v := range bits(ref) {
							if got[0][i] != v || got[1][i] != v {
								t.Fatalf("%s %dx%dx%d %s: element %d bits ZMM %#x, YMM %#x, scalar %#x",
									f.name, m, k, n, fill, i, got[0][i], got[1][i], v)
							}
						}
					}
				}
			}
		}
	}
}

// fillOperand draws data from N(0,1) and then, by fill: "dense" leaves
// it; "sparse" zeroes 80 % of it; "special" sprinkles −0 and denormals
// of both signs over 2 % of it (denormal arithmetic runs on microcode
// assists: at 30 % the table took five seconds).
func fillOperand(r *rng.RNG, data []float32, fill string) {
	specials := []float32{
		math.Float32frombits(1 << 31),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
	}
	r.FillNormal(data, 0, 1)
	for i := range data {
		switch {
		case fill == "sparse" && r.Float64() < 0.8:
			data[i] = 0
		case fill == "special" && r.Float64() < 0.02:
			data[i] = specials[r.Intn(len(specials))]
		}
	}
}

// checkTransposedBatch holds the identity nn.Linear's forward pass rests
// on: for weights w (out, in) and a batch x (b, in) filled like w (see
// fillOperand), x@wᵀ taken as (w@xᵀ)ᵀ through MatMul — with the batch as
// it is, and padded with zero lanes to a multiple of 8 as the layer pads
// it — is MatMulT(x, w) bit for bit, sign of zero included. Both forms
// sum each output over in ascending from +0; they differ in which
// operand a kernel tests for zeros (so a sparse wide product takes the
// row kernel in one form or the other) and in which rows share a tile,
// which the contract says cannot show.
func checkTransposedBatch(t *testing.T, r *rng.RNG, name string, w *Tensor, b int, fill string) {
	t.Helper()
	out, in := w.Dim(0), w.Dim(1)
	x := New(b, in)
	fillOperand(r, x.Data, fill)
	want := New(b, out)
	MatMulT(want, x, w)
	lanes := []int{b}
	if pad := (b + 7) &^ 7; pad != b {
		lanes = append(lanes, pad)
	}
	for _, bp := range lanes {
		xT, yT := New(in, bp), New(out, bp)
		for i := 0; i < b; i++ {
			for p := 0; p < in; p++ {
				xT.Data[p*bp+i] = x.Data[i*in+p]
			}
		}
		MatMul(yT, w, xT)
		for i := 0; i < b; i++ {
			for j := 0; j < out; j++ {
				got, want := yT.Data[j*bp+i], want.Data[i*out+j]
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%s lanes=%d: (W@xᵀ)ᵀ[%d][%d] = %v (bits %#x), MatMulT gives %v (bits %#x)",
						name, bp, i, j, got, math.Float32bits(got), want, math.Float32bits(want))
				}
			}
		}
	}
}

// checkProductForms compares MatMul, MatMulAcc, MatMulTA and MatMulTAAcc
// with the naive loops on one random (m,k)@(k,n) problem whose left
// operands have about zeroFrac of their elements zeroed.
func checkProductForms(t *testing.T, r *rng.RNG, name string, m, k, n int, zeroFrac float64) {
	t.Helper()
	a, at := New(m, k), New(k, m)
	b, init := New(k, n), New(m, n)
	r.FillNormal(a.Data, 0, 1)
	r.FillNormal(at.Data, 0, 1)
	r.FillNormal(b.Data, 0, 1)
	r.FillNormal(init.Data, 0, 1)
	for i := range a.Data {
		if r.Float64() < zeroFrac {
			a.Data[i] = 0
		}
		if r.Float64() < zeroFrac {
			at.Data[i] = 0
		}
	}
	got, want, sum := New(m, n), New(m, n), New(m, n)

	naiveMatMul(want, a, b)
	MatMul(got, a, b)
	requireBitEqual(t, name+"/MatMul", got, want)
	for i := range sum.Data {
		sum.Data[i] = init.Data[i] + want.Data[i]
	}
	copy(got.Data, init.Data)
	MatMulAcc(got, a, b)
	requireBitEqual(t, name+"/MatMulAcc", got, sum)

	naiveMatMulTA(want, at, b)
	MatMulTA(got, at, b)
	requireBitEqual(t, name+"/MatMulTA", got, want)
	for i := range sum.Data {
		sum.Data[i] = init.Data[i] + want.Data[i]
	}
	copy(got.Data, init.Data)
	MatMulTAAcc(got, at, b)
	requireBitEqual(t, name+"/MatMulTAAcc", got, sum)
}

// TestKernelZeroOperands pins the zero cases of the summation-order
// contract explicitly. An accumulator that starts at +0 never becomes
// -0, so an all-zero or all-(-0) left operand must give +0 outputs
// (sign bit clear) whether the kernel skips the terms (scalar, row) or
// multiplies them out (tiles: 0·x = ±0, +0 + ±0 = +0), and a -0 entry
// next to real terms must leave their sum untouched.
func TestKernelZeroOperands(t *testing.T) {
	negZero := math.Float32frombits(1 << 31)
	r := rng.New(0x2e70)
	for _, n := range []int{8, 16, 24, 25, 40} {
		for _, m := range []int{3, 8, 9} {
			k := 25
			b := New(k, n)
			r.FillNormal(b.Data, 0, 1)
			for _, fill := range []float32{0, negZero} {
				a, at := New(m, k), New(k, m)
				for i := range a.Data {
					a.Data[i], at.Data[i] = fill, fill
				}
				got := New(m, n)
				for op, run := range map[string]func(){
					"MatMul":   func() { MatMul(got, a, b) },
					"MatMulTA": func() { MatMulTA(got, at, b) },
				} {
					r.FillNormal(got.Data, 0, 1)
					run()
					for i, v := range got.Data {
						if math.Float32bits(v) != 0 {
							t.Fatalf("%s m=%d n=%d fill=%v: element %d = %v (bits %#x), want +0",
								op, m, n, fill, i, v, math.Float32bits(v))
						}
					}
				}
			}

			// One real term per row, the rest -0: the sum is that term's
			// product exactly, and an Acc onto -0 gives +0 + -0 → the
			// product again, never a flipped sign.
			a := New(m, k)
			for i := range a.Data {
				a.Data[i] = negZero
			}
			for i := 0; i < m; i++ {
				a.Data[i*k+i%k] = 2
			}
			got, want := New(m, n), New(m, n)
			naiveMatMul(want, a, b)
			MatMul(got, a, b)
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("MatMul m=%d n=%d: element %d bits %#x, want %#x",
						m, n, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
				}
			}
		}
	}
}

// TestMatMulTRankCheck pins the regression where MatMulT and MatMulTA
// accepted non-rank-2 arguments and died later with a confusing
// dimension error; they must reject them up front like MatMul does.
func TestMatMulTRankCheck(t *testing.T) {
	rank3 := New(2, 2, 2)
	mat := New(2, 2)
	cases := []struct {
		name string
		call func()
	}{
		{"MatMulT-a", func() { MatMulT(New(2, 2), rank3, mat) }},
		{"MatMulT-b", func() { MatMulT(New(2, 2), mat, rank3) }},
		{"MatMulT-dst", func() { MatMulT(rank3, mat, mat) }},
		{"MatMulTA-a", func() { MatMulTA(New(2, 2), rank3, mat) }},
		{"MatMulTA-b", func() { MatMulTA(New(2, 2), mat, rank3) }},
		{"MatMulTAAcc-a", func() { MatMulTAAcc(New(2, 2), rank3, mat) }},
		{"MatMulAcc-a", func() { MatMulAcc(New(2, 2), rank3, mat) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("expected a panic on a non-rank-2 argument")
				}
				msg, ok := r.(string)
				if !ok {
					t.Fatalf("panic value %v (%T), want a string message", r, r)
				}
				if want := "rank-2"; !contains(msg, want) {
					t.Fatalf("panic message %q does not mention %q", msg, want)
				}
			}()
			tc.call()
		})
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestEnsureReuse covers the scratch primitive: same shape returns the
// same tensor, a smaller shape reuses the backing array, a larger shape
// allocates.
func TestEnsureReuse(t *testing.T) {
	a := Ensure(nil, 4, 8)
	if a == nil || a.Len() != 32 {
		t.Fatalf("Ensure(nil) = %v", a)
	}
	b := Ensure(a, 4, 8)
	if b != a {
		t.Fatal("Ensure with identical shape must return the same tensor")
	}
	c := Ensure(a, 2, 6)
	if &c.Data[0] != &a.Data[0] {
		t.Fatal("Ensure with a smaller shape must reuse the backing array")
	}
	if c.Dim(0) != 2 || c.Dim(1) != 6 || c.Len() != 12 {
		t.Fatalf("Ensure reshape got %v", c.Shape())
	}
	d := Ensure(c, 100, 100)
	if d.Len() != 10000 {
		t.Fatalf("Ensure grow got %v", d.Shape())
	}
}

// TestBindView covers the zero-alloc view primitive.
func TestBindView(t *testing.T) {
	data := make([]float32, 24)
	for i := range data {
		data[i] = float32(i)
	}
	var v Tensor
	v.Bind(data[6:], 3, 4)
	if v.Len() != 12 || at(&v, 0, 0) != 6 {
		t.Fatalf("Bind view wrong: len %d, first %v", v.Len(), at(&v, 0, 0))
	}
	v.Data[0] = -1
	if data[6] != -1 {
		t.Fatal("Bind must alias the underlying data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Bind with short data must panic")
		}
	}()
	v.Bind(data[:3], 2, 2)
}

// TestIm2ColIndexing checks the lowering element by element against its
// definition, for the 5-wide window fast path and the general loop.
func TestIm2ColIndexing(t *testing.T) {
	r := rng.New(0x1c01)
	for _, k := range [][2]int{{5, 5}, {3, 5}, {5, 3}, {2, 4}} {
		kh, kw := k[0], k[1]
		c, h, w := 3, 9, 11
		outH, outW := h-kh+1, w-kw+1
		img := New(c, h, w)
		r.FillNormal(img.Data, 0, 1)
		dst := New(outH*outW, c*kh*kw)
		Im2Col(dst, img, kh, kw)
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							got := at(dst, oy*outW+ox, (ch*kh+ky)*kw+kx)
							if want := at(img, ch, oy+ky, ox+kx); got != want {
								t.Fatalf("%dx%d window: (%d,%d) ch %d (%d,%d) = %v, want %v", kh, kw, oy, ox, ch, ky, kx, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestCol2ImSummationOrder holds the scatter to the bits of the row-major
// reference nest (output position, then channel, kernel row, kernel
// column): overlapping windows must reach every pixel in that order, for
// the 5-wide sliding-register path and the general loop.
func TestCol2ImSummationOrder(t *testing.T) {
	r := rng.New(0xc0121)
	for _, k := range [][2]int{{5, 5}, {3, 5}, {5, 3}, {2, 4}} {
		kh, kw := k[0], k[1]
		c, h, w := 3, 9, 11
		outH, outW := h-kh+1, w-kw+1
		nCols := c * kh * kw
		cols := New(outH*outW, nCols)
		r.FillNormal(cols.Data, 0, 1)
		want := New(c, h, w)
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				row := cols.Data[(oy*outW+ox)*nCols:]
				idx := 0
				for ch := 0; ch < c; ch++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							want.Data[ch*h*w+(oy+ky)*w+ox+kx] += row[idx]
							idx++
						}
					}
				}
			}
		}
		got := New(c, h, w)
		r.FillNormal(got.Data, 0, 1) // Col2Im must zero it
		Col2Im(got, cols, kh, kw)
		requireBitEqual(t, fmt.Sprintf("Col2Im %dx%d", kh, kw), got, want)
	}
}

// TestConvProductMatchesIm2ColMatMul holds ConvProduct to its
// definition — Im2Col, then each element one ascending-p sum from +0 —
// bit for bit: at both classifiers' layers, at shapes on every side of
// the tile kernels' cover (outC not a multiple of 8, output rows that
// are not whole tiles, an 8-channel block left over after the 16s, a
// 3-wide kernel, H ≠ W), with exact zeros, −0 and denormals in both
// operands. tiled says which shapes the AVX build computes without the
// im2col scratch, which must then stay unallocated.
func TestConvProductMatchesIm2ColMatMul(t *testing.T) {
	r := rng.New(0xc0de)
	for _, s := range []struct {
		inC, outC, h, w, kh, kw int
		tiled                   bool
	}{
		{1, 8, 28, 28, 5, 5, true},    // small, layer 1: 8x8 tiles
		{8, 16, 12, 12, 5, 5, true},   // small, layer 2: 4x16 tiles
		{1, 32, 28, 28, 5, 5, true},   // paper, layer 1
		{32, 64, 12, 12, 5, 5, true},  // paper, layer 2
		{3, 24, 10, 10, 3, 3, true},   // a 16 block and an 8 block, outW 8
		{2, 16, 9, 8, 3, 5, true},     // outW 4, outH 7
		{2, 24, 6, 6, 3, 3, false},    // outW 4 is no 8-row tile
		{2, 10, 7, 5, 5, 5, false},    // outW 1
		{3, 12, 6, 7, 5, 5, false},    // outW 3
		{2, 24, 9, 9, 5, 5, false},    // outW 5
		{1, 8, 11, 11, 3, 3, false},   // outW 9
		{2, 16, 11, 11, 3, 3, false},  // outW 9
		{1, 10, 12, 12, 5, 5, false},  // outC 10
		{2, 12, 10, 12, 3, 5, false},  // outC 12
		{1, 8, 5, 5, 5, 5, false},     // a single window
		{1, 16, 5, 8, 5, 5, true},     // a single output row
		{5, 8, 12, 12, 5, 5, true},    // 8x8 tiles over several channels
		{2, 32, 7, 14, 3, 3, true},    // two 16 blocks, three tiles a row
		{1, 16, 16, 16, 1, 1, true},   // a 1x1 kernel
		{1, 16, 16, 19, 16, 16, true}, // a kernel as tall as the image
	} {
		for _, fill := range []string{"dense", "sparse", "special"} {
			name := fmt.Sprintf("%d->%d @%dx%d k%dx%d %s", s.inC, s.outC, s.h, s.w, s.kh, s.kw, fill)
			outH, outW := s.h-s.kh+1, s.w-s.kw+1
			fanIn := s.inC * s.kh * s.kw
			img, wT := New(s.inC, s.h, s.w), New(fanIn, s.outC)
			fillOperand(r, img.Data, fill)
			fillOperand(r, wT.Data, fill)

			windows, want := New(outH*outW, fanIn), New(outH*outW, s.outC)
			Im2Col(windows, img, s.kh, s.kw)
			naiveMatMul(want, windows, wT)

			got := New(outH*outW, s.outC)
			r.FillNormal(got.Data, 0, 1) // ConvProduct must overwrite it
			cols := ConvProduct(got, img, wT, s.kh, s.kw, nil)
			for i, v := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
					t.Fatalf("%s: position %d channel %d = %v (bits %#x), want %v (bits %#x)", name,
						i/s.outC, i%s.outC, got.Data[i], math.Float32bits(got.Data[i]), v, math.Float32bits(v))
				}
			}
			if tiled := HasVectorKernels() && s.tiled; tiled != (cols == nil) {
				t.Fatalf("%s: im2col scratch allocated = %v, want %v", name, cols != nil, !tiled)
			}
			if cols != nil && ConvProduct(got, img, wT, s.kh, s.kw, cols) != cols {
				t.Fatalf("%s: a second call did not reuse its im2col scratch", name)
			}
		}
	}
}
