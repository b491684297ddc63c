package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"fedguard/internal/rng"
)

func almostEq(a, b, eps float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}

func TestNewZeroFilled(t *testing.T) {
	x := New(3, 4)
	if x.Len() != 12 {
		t.Fatalf("Len = %d, want 12", x.Len())
	}
	for _, v := range x.Data {
		if v != 0 {
			t.Fatal("New tensor not zero-filled")
		}
	}
}

func TestFromSliceAliases(t *testing.T) {
	data := []float32{1, 2, 3, 4}
	x := FromSlice(data, 2, 2)
	data[0] = 9
	if x.At(0, 0) != 9 {
		t.Fatal("FromSlice must alias the input slice")
	}
}

func TestFromSlicePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong volume did not panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestAtSet(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7.5, 1, 2, 3)
	if x.At(1, 2, 3) != 7.5 {
		t.Fatal("At/Set round trip failed")
	}
	if x.Data[1*12+2*4+3] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestReshapeView(t *testing.T) {
	x := New(2, 6)
	x.Data[5] = 3
	y := x.Reshape(3, 4)
	if y.At(1, 1) != 3 {
		t.Fatal("Reshape must preserve flat layout")
	}
	y.Set(8, 0, 0)
	if x.At(0, 0) != 8 {
		t.Fatal("Reshape must alias storage")
	}
	z := x.Reshape(4, -1)
	if z.Dim(1) != 3 {
		t.Fatalf("inferred dimension = %d, want 3", z.Dim(1))
	}
}

func TestReshapePanicsOnVolumeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad Reshape did not panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float32{1, 2}, 2)
	y := x.Clone()
	y.Data[0] = 5
	if x.Data[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	dst := New(3)
	Add(dst, a, b)
	if dst.Data[2] != 9 {
		t.Fatalf("Add = %v", dst.Data)
	}
	Sub(dst, b, a)
	if dst.Data[0] != 3 {
		t.Fatalf("Sub = %v", dst.Data)
	}
	Mul(dst, a, b)
	if dst.Data[1] != 10 {
		t.Fatalf("Mul = %v", dst.Data)
	}
	Scale(dst, a, 2)
	if dst.Data[2] != 6 {
		t.Fatalf("Scale = %v", dst.Data)
	}
	AXPY(dst, 10, a) // dst = 2a + 10a = 12a
	if dst.Data[0] != 12 {
		t.Fatalf("AXPY = %v", dst.Data)
	}
}

func TestApply(t *testing.T) {
	a := FromSlice([]float32{-1, 2}, 2)
	dst := New(2)
	Apply(dst, a, func(v float32) float32 {
		if v < 0 {
			return 0
		}
		return v
	})
	if dst.Data[0] != 0 || dst.Data[1] != 2 {
		t.Fatalf("Apply = %v", dst.Data)
	}
}

func TestSumMaxDotNorm(t *testing.T) {
	a := FromSlice([]float32{3, -1, 4}, 3)
	if a.Sum() != 6 {
		t.Fatalf("Sum = %v", a.Sum())
	}
	v, i := a.Max()
	if v != 4 || i != 2 {
		t.Fatalf("Max = %v at %d", v, i)
	}
	b := FromSlice([]float32{1, 1, 1}, 3)
	if Dot(a, b) != 6 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	if !almostEq(DistSlice(a.Data, b.Data), float32(math.Sqrt(4+4+9)), 1e-5) {
		t.Fatalf("DistSlice = %v", DistSlice(a.Data, b.Data))
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	dst := New(2, 2)
	MatMul(dst, a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if dst.Data[i] != w {
			t.Fatalf("MatMul = %v, want %v", dst.Data, want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := rng.New(1)
	a := New(5, 5)
	r.FillNormal(a.Data, 0, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(1, i, i)
	}
	dst := New(5, 5)
	MatMul(dst, a, id)
	for i := range a.Data {
		if !almostEq(dst.Data[i], a.Data[i], 1e-6) {
			t.Fatal("A @ I != A")
		}
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	r := rng.New(2)
	const m, k, n = 67, 41, 53
	a := New(m, k)
	b := New(k, n)
	r.FillNormal(a.Data, 0, 1)
	r.FillNormal(b.Data, 0, 1)
	big := New(m, n)
	MatMul(big, a, b) // likely parallel path
	ref := New(m, n)
	matmulRows(ref.Data, a.Data, b.Data, 0, m, k, n, false)
	for i := range ref.Data {
		if !almostEq(big.Data[i], ref.Data[i], 1e-4) {
			t.Fatalf("parallel MatMul diverges at %d: %v vs %v", i, big.Data[i], ref.Data[i])
		}
	}
}

func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	r := rng.New(3)
	a := New(9, 7)
	b := New(11, 7)
	r.FillNormal(a.Data, 0, 1)
	r.FillNormal(b.Data, 0, 1)
	got := New(9, 11)
	MatMulT(got, a, b)
	want := New(9, 11)
	MatMul(want, a, Transpose(b))
	for i := range want.Data {
		if !almostEq(got.Data[i], want.Data[i], 1e-4) {
			t.Fatal("MatMulT != MatMul with explicit transpose")
		}
	}
}

func TestMatMulTAMatchesExplicitTranspose(t *testing.T) {
	r := rng.New(4)
	a := New(13, 6)
	b := New(13, 8)
	r.FillNormal(a.Data, 0, 1)
	r.FillNormal(b.Data, 0, 1)
	got := New(6, 8)
	MatMulTA(got, a, b)
	want := New(6, 8)
	MatMul(want, Transpose(a), b)
	for i := range want.Data {
		if !almostEq(got.Data[i], want.Data[i], 1e-4) {
			t.Fatal("MatMulTA != MatMul with explicit transpose")
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(5)
	a := New(17, 23)
	r.FillNormal(a.Data, 0, 1)
	b := Transpose(Transpose(a))
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("transpose twice != identity")
		}
	}
}

// Property: (A@B)ᵀ == Bᵀ@Aᵀ for random small matrices.
func TestQuickMatMulTransposeLaw(t *testing.T) {
	r := rng.New(6)
	f := func(ms, ks, ns uint8) bool {
		m := int(ms%6) + 1
		k := int(ks%6) + 1
		n := int(ns%6) + 1
		a := New(m, k)
		b := New(k, n)
		r.FillNormal(a.Data, 0, 1)
		r.FillNormal(b.Data, 0, 1)
		ab := New(m, n)
		MatMul(ab, a, b)
		lhs := Transpose(ab)
		rhs := New(n, m)
		MatMul(rhs, Transpose(b), Transpose(a))
		for i := range lhs.Data {
			if !almostEq(lhs.Data[i], rhs.Data[i], 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2ColKnown(t *testing.T) {
	// 1x3x3 image, 2x2 kernel -> 4 windows of 4 values.
	img := FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	dst := New(4, 4)
	Im2Col(dst, img, 2, 2)
	want := [][]float32{
		{1, 2, 4, 5},
		{2, 3, 5, 6},
		{4, 5, 7, 8},
		{5, 6, 8, 9},
	}
	for i, row := range want {
		for j, w := range row {
			if dst.At(i, j) != w {
				t.Fatalf("Im2Col[%d][%d] = %v, want %v", i, j, dst.At(i, j), w)
			}
		}
	}
}

func TestIm2ColMultiChannel(t *testing.T) {
	img := New(2, 3, 3)
	for i := range img.Data {
		img.Data[i] = float32(i)
	}
	dst := New(4, 8)
	Im2Col(dst, img, 2, 2)
	// First window, channel 1 starts at flat index 9.
	if dst.At(0, 4) != 9 {
		t.Fatalf("multi-channel Im2Col wrong: got %v", dst.At(0, 4))
	}
}

// Property: Col2Im is the adjoint of Im2Col — <Im2Col(x), y> == <x, Col2Im(y)>.
func TestCol2ImAdjoint(t *testing.T) {
	r := rng.New(7)
	const c, h, w, kh, kw = 2, 6, 5, 3, 2
	outH, outW := h-kh+1, w-kw+1
	x := New(c, h, w)
	r.FillNormal(x.Data, 0, 1)
	y := New(outH*outW, c*kh*kw)
	r.FillNormal(y.Data, 0, 1)

	ix := New(outH*outW, c*kh*kw)
	Im2Col(ix, x, kh, kw)
	lhs := Dot(ix, y)

	cy := New(c, h, w)
	Col2Im(cy, y, kh, kw)
	rhs := Dot(x, cy)

	if !almostEq(lhs, rhs, 1e-3) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestMatMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with mismatched shapes did not panic")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(2, 2))
}
