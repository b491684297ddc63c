package tensor

import (
	"fmt"
	"slices"
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

// at reads the element at a multi-index.
func at(t *Tensor, idx ...int) float32 { return t.Data[offset(t, idx)] }

// offset is the row-major flat index of a multi-index.
func offset(t *Tensor, idx []int) int {
	if len(idx) != t.Rank() {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), t.Rank()))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Dim(i) {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.Shape()))
		}
		off = off*t.Dim(i) + x
	}
	return off
}

// clone returns a deep copy of t.
func clone(t *Tensor) *Tensor { return FromSlice(slices.Clone(t.Data), t.Shape()...) }

// transpose returns a new tensor holding the transpose of the 2-D a.
func transpose(a *Tensor) *Tensor {
	out := New(a.Dim(1), a.Dim(0))
	TransposeInto(out, a)
	return out
}

// dot returns the inner product of a and b viewed as flat vectors.
func dot(a, b *Tensor) float32 {
	var acc float64
	for i := range a.Data {
		acc += float64(a.Data[i]) * float64(b.Data[i])
	}
	return float32(acc)
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
	if at(x, 0, 0) != 9 {
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

// TestAtSet: tensors are row-major as the kernels read them — element
// (i, j) of a (2, 3) matrix is Data[3i+j], and its transpose holds it
// at Data[2j+i].
func TestAtSet(t *testing.T) {
	x := New(2, 3)
	x.Data[1*3+2] = 7.5
	if at(x, 1, 2) != 7.5 {
		t.Fatal("row-major layout violated")
	}
	xt := New(3, 2)
	TransposeInto(xt, x)
	if xt.Data[2*2+1] != 7.5 || at(xt, 2, 1) != 7.5 {
		t.Fatalf("TransposeInto put (1,2) elsewhere: %v", xt.Data)
	}
}

// TestCloneIndependent: New and FromSlice keep a shape of their own, so
// a caller reusing its shape slice does not reshape the tensor, and two
// tensors from New never share storage.
func TestCloneIndependent(t *testing.T) {
	shape := []int{2, 3}
	x, y := New(shape...), FromSlice(make([]float32, 6), shape...)
	shape[0] = 3
	if x.Dim(0) != 2 || y.Dim(0) != 2 {
		t.Fatalf("a caller's shape slice reshaped the tensors: %v, %v", x.Shape(), y.Shape())
	}
	z := New(2, 3)
	z.Data[0] = 5
	if x.Data[0] != 0 {
		t.Fatal("two tensors from New share storage")
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
}

func TestSumMaxDotNorm(t *testing.T) {
	a := FromSlice([]float32{3, -1, 4}, 3)
	if SumSqBlocked(a.Data) != 9+1+16 {
		t.Fatalf("SumSqBlocked = %v", SumSqBlocked(a.Data))
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
		id.Data[i*5+i] = 1
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
	MatMul(want, a, transpose(b))
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
	MatMul(want, transpose(a), b)
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
	tr := New(23, 17)
	TransposeInto(tr, a)
	b := New(17, 23)
	TransposeInto(b, tr)
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
		lhs := transpose(ab)
		rhs := New(n, m)
		MatMul(rhs, transpose(b), transpose(a))
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
			if at(dst, i, j) != w {
				t.Fatalf("Im2Col[%d][%d] = %v, want %v", i, j, at(dst, i, j), w)
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
	if at(dst, 0, 4) != 9 {
		t.Fatalf("multi-channel Im2Col wrong: got %v", at(dst, 0, 4))
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
	lhs := dot(ix, y)

	cy := New(c, h, w)
	Col2Im(cy, y, kh, kw)
	rhs := dot(x, cy)

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
