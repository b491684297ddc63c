package tensor

import "fmt"

// Add computes dst = a + b element-wise. All three tensors must share a
// shape; dst may alias a or b.
func Add(dst, a, b *Tensor) {
	checkTriple("Add", dst, a, b)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// TransposeInto writes the transpose of the 2-D tensor a into dst, which
// must be shaped (cols, rows). nn.ConvBlock uses it to maintain its
// transposed-filter scratch for the vector matmul kernels.
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

func checkTriple(op string, dst, a, b *Tensor) {
	if !dst.SameShape(a) || !dst.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v, %v, %v", op, dst.shape, a.shape, b.shape))
	}
}
