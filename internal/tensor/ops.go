package tensor

import (
	"fmt"
	"math"
)

// Add computes dst = a + b element-wise. All three tensors must share a
// shape; dst may alias a or b.
func Add(dst, a, b *Tensor) {
	checkTriple("Add", dst, a, b)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Sub computes dst = a - b element-wise.
func Sub(dst, a, b *Tensor) {
	checkTriple("Sub", dst, a, b)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

// Mul computes dst = a * b element-wise (Hadamard product).
func Mul(dst, a, b *Tensor) {
	checkTriple("Mul", dst, a, b)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
}

// Scale computes dst = s * a.
func Scale(dst, a *Tensor, s float32) {
	checkPair("Scale", dst, a)
	for i := range dst.Data {
		dst.Data[i] = s * a.Data[i]
	}
}

// AXPY computes dst += s * a (the BLAS axpy primitive).
func AXPY(dst *Tensor, s float32, a *Tensor) {
	checkPair("AXPY", dst, a)
	for i := range dst.Data {
		dst.Data[i] += s * a.Data[i]
	}
}

// AddScalar computes dst = a + s.
func AddScalar(dst, a *Tensor, s float32) {
	checkPair("AddScalar", dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + s
	}
}

// Apply computes dst = f(a) element-wise.
func Apply(dst, a *Tensor, f func(float32) float32) {
	checkPair("Apply", dst, a)
	for i := range dst.Data {
		dst.Data[i] = f(a.Data[i])
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float32 {
	var s float32
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Max returns the maximum element and its flat index. It panics on an
// empty tensor (which cannot be constructed).
func (t *Tensor) Max() (float32, int) {
	best := t.Data[0]
	at := 0
	for i, v := range t.Data {
		if v > best {
			best, at = v, i
		}
	}
	return best, at
}

// Dot returns the inner product of a and b viewed as flat vectors.
func Dot(a, b *Tensor) float32 {
	if a.Len() != b.Len() {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", a.Len(), b.Len()))
	}
	return DotSlice(a.Data, b.Data)
}

// DotSlice returns the inner product of two equal-length slices using
// float64 accumulation for stability.
func DotSlice(a, b []float32) float32 {
	var acc float64
	for i := range a {
		acc += float64(a[i]) * float64(b[i])
	}
	return float32(acc)
}

// DistSlice returns the Euclidean distance between two equal-length
// slices.
func DistSlice(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: DistSlice length mismatch %d vs %d", len(a), len(b)))
	}
	var acc float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		acc += d * d
	}
	return float32(math.Sqrt(acc))
}

// Transpose returns a new tensor that is the transpose of the 2-D tensor
// a.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose of rank-%d tensor", a.Rank()))
	}
	rows, cols := a.Dim(0), a.Dim(1)
	out := New(cols, rows)
	const block = 32
	for i0 := 0; i0 < rows; i0 += block {
		iMax := min(i0+block, rows)
		for j0 := 0; j0 < cols; j0 += block {
			jMax := min(j0+block, cols)
			for i := i0; i < iMax; i++ {
				row := a.Data[i*cols:]
				for j := j0; j < jMax; j++ {
					out.Data[j*rows+i] = row[j]
				}
			}
		}
	}
	return out
}

// TransposeInto writes the transpose of the 2-D tensor a into dst, which
// must be shaped (cols, rows). Unlike Transpose it allocates nothing —
// nn.Conv2D uses it to maintain its transposed-filter scratch for the
// vector matmul kernels.
func TransposeInto(dst, a *Tensor) {
	if a.Rank() != 2 || dst.Rank() != 2 {
		panic("tensor: TransposeInto requires rank-2 tensors")
	}
	rows, cols := a.Dim(0), a.Dim(1)
	if dst.Dim(0) != cols || dst.Dim(1) != rows {
		panic(fmt.Sprintf("tensor: TransposeInto dst shape %v, want (%d,%d)", dst.shape, cols, rows))
	}
	const block = 32
	for i0 := 0; i0 < rows; i0 += block {
		iMax := min(i0+block, rows)
		for j0 := 0; j0 < cols; j0 += block {
			jMax := min(j0+block, cols)
			for i := i0; i < iMax; i++ {
				row := a.Data[i*cols:]
				for j := j0; j < jMax; j++ {
					dst.Data[j*rows+i] = row[j]
				}
			}
		}
	}
}

func checkPair(op string, dst, a *Tensor) {
	if !dst.SameShape(a) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, dst.shape, a.shape))
	}
}

func checkTriple(op string, dst, a, b *Tensor) {
	if !dst.SameShape(a) || !dst.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v, %v, %v", op, dst.shape, a.shape, b.shape))
	}
}
