// Package tensor implements dense float32 tensors and the numerical
// kernels the neural-network substrate is built on: blocked and
// goroutine-parallel matrix multiplication, element-wise arithmetic,
// reductions, and the im2col/col2im transforms used by convolution.
//
// Tensors are row-major. A Tensor owns its backing slice unless it was
// made by FromSlice or Bind, in which case it aliases the caller's
// storage — this is deliberate and documented per operation.
package tensor

import (
	"fmt"
	"strings"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	Data  []float32
	shape []int
}

// New allocates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{Data: make([]float32, n), shape: append([]int(nil), shape...)}
}

// FromSlice wraps data in a tensor of the given shape. The tensor aliases
// data (no copy). It panics if the length of data does not match the
// shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), shape, n))
	}
	return &Tensor{Data: data, shape: append([]int(nil), shape...)}
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Ensure returns a tensor of the given shape, reusing t's backing array
// when its capacity suffices and allocating otherwise. It is the
// scratch-buffer primitive: layers keep per-call work tensors alive
// across steps (`c.cols = tensor.Ensure(c.cols, ...)`) so steady-state
// training allocates nothing. The returned tensor's contents are
// unspecified when the shape changes — callers must overwrite every
// element. t must be exclusively owned scratch (never a FromSlice view of
// shared storage); passing nil is allowed and allocates.
func Ensure(t *Tensor, shape ...int) *Tensor {
	n := shapeVolume(shape)
	if n < 0 {
		checkShape(append([]int(nil), shape...)) // panics with the full message
	}
	if t == nil || cap(t.Data) < n {
		return &Tensor{Data: make([]float32, n), shape: append([]int(nil), shape...)}
	}
	if len(t.shape) == len(shape) {
		same := true
		for i := range shape {
			if t.shape[i] != shape[i] {
				same = false
				break
			}
		}
		if same {
			return t
		}
	}
	t.Data = t.Data[:n]
	t.shape = append(t.shape[:0], shape...)
	return t
}

// Bind repoints t at a prefix of data with the given shape, without
// allocating a new header. It exists so hot loops can carve per-item
// views out of a batched buffer (e.g. one image's im2col rows) using a
// reusable Tensor value instead of a fresh FromSlice per item. data must
// hold at least the shape's volume; the view aliases data.
func (t *Tensor) Bind(data []float32, shape ...int) {
	n := shapeVolume(shape)
	if n < 0 {
		checkShape(append([]int(nil), shape...)) // panics with the full message
	}
	if len(data) < n {
		panic(fmt.Sprintf("tensor: Bind data length %d short of shape %v (volume %d)",
			len(data), append([]int(nil), shape...), n))
	}
	t.Data = data[:n]
	t.shape = append(t.shape[:0], shape...)
}

// shapeVolume computes the element count of shape, returning -1 for an
// invalid (empty or non-positive) shape. Unlike checkShape it never
// formats shape into a panic message, so it does not force callers'
// variadic shape slices to escape to the heap — the property the
// zero-allocation scratch paths (Ensure, Bind) rely on.
func shapeVolume(shape []int) int {
	if len(shape) == 0 {
		return -1
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return -1
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// String renders a compact description (shape plus a data prefix) for
// debugging.
func (t *Tensor) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Tensor%v[", t.shape)
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%.4g", t.Data[i])
	}
	if n < len(t.Data) {
		sb.WriteString(", ...")
	}
	sb.WriteString("]")
	return sb.String()
}
