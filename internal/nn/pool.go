package nn

import (
	"fmt"
	"math"
	"slices"

	"fedguard/internal/tensor"
)

// MaxPool2D is a non-overlapping max pooling layer with a (PH, PW) window
// and equal stride. Inputs of shape (B, C, H, W) produce
// (B, C, H/PH, W/PW); trailing rows/columns that do not fill a window are
// dropped (floor division), matching the paper's 2×2 pools. Output and
// gradient tensors are layer scratch reused across steps.
type MaxPool2D struct {
	PH, PW int

	inShape []int
	argmax  []int32 // flat input index of each output element
	y       *tensor.Tensor
	dx      *tensor.Tensor
}

// NewMaxPool2D constructs a pooling layer with the given window.
func NewMaxPool2D(ph, pw int) *MaxPool2D {
	if ph <= 0 || pw <= 0 {
		panic("nn: MaxPool2D with non-positive window")
	}
	return &MaxPool2D{PH: ph, PW: pw}
}

// outDims returns the pooled height and width of an h×w plane.
func (m *MaxPool2D) outDims(h, w int) (int, int) {
	outH, outW := h/m.PH, w/m.PW
	if outH == 0 || outW == 0 {
		panic(fmt.Sprintf("nn: %s window larger than input (%d,%d)", m.Name(), h, w))
	}
	return outH, outW
}

// expect records a (b, c, h, w) input for Backward, sizes argmax for its
// output — for Forward or a fused conv block to fill — and returns the
// output's height and width.
func (m *MaxPool2D) expect(b, c, h, w int) (int, int) {
	outH, outW := m.outDims(h, w)
	if b*c*h*w > math.MaxInt32 {
		panic(fmt.Sprintf("nn: %s input of %d elements overflows the int32 argmax", m.Name(), b*c*h*w))
	}
	m.inShape = append(m.inShape[:0], b, c, h, w)
	n := b * c * outH * outW
	m.argmax = slices.Grow(m.argmax[:0], n)[:n]
	return outH, outW
}

// Forward computes the pooled output and records argmax indices for the
// backward pass.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s got input shape %v", m.Name(), x.Shape()))
	}
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	outH, outW := m.expect(b, c, h, w)
	m.y = tensor.Ensure(m.y, b, c, outH, outW)
	for i := 0; i < b; i++ {
		for ch := 0; ch < c; ch++ {
			base := (i*c + ch) * h * w
			outBase := (i*c + ch) * outH * outW
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					bestIdx := base + oy*m.PH*w + ox*m.PW
					best := x.Data[bestIdx]
					for ky := 0; ky < m.PH; ky++ {
						rowIdx := base + (oy*m.PH+ky)*w + ox*m.PW
						for kx := 0; kx < m.PW; kx++ {
							if v := x.Data[rowIdx+kx]; v > best {
								best = v
								bestIdx = rowIdx + kx
							}
						}
					}
					out := outBase + oy*outW + ox
					m.y.Data[out] = best
					m.argmax[out] = int32(bestIdx)
				}
			}
		}
	}
	return m.y
}

// Backward routes each output gradient to the input position that won the
// max.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor { return m.backward(grad, nil) }

// backward is Backward when y is nil. With y, the pooled output of a
// fused conv block, it is also the Backward of the ReLU in front of the
// pool: a gradient reaches its winner only where y is nonzero, where the
// ReLU fired. Each winner gets +0 + g, the bits of a += into the zeroed
// dx (a −0 gradient becomes +0).
func (m *MaxPool2D) backward(grad, y *tensor.Tensor) *tensor.Tensor {
	if grad.Len() != len(m.argmax) {
		panic(fmt.Sprintf("nn: %s gradient length %d, want %d", m.Name(), grad.Len(), len(m.argmax)))
	}
	m.dx = tensor.Ensure(m.dx, m.inShape...)
	m.dx.Zero()
	for i, g := range grad.Data {
		fired := ^uint32(0)
		if y != nil {
			yb := math.Float32bits(y.Data[i])
			fired = uint32(int32(yb|-yb) >> 31)
		}
		m.dx.Data[m.argmax[i]] = math.Float32frombits(math.Float32bits(0+g) & fired)
	}
	return m.dx
}

// Params returns nil: pooling has no learnable parameters.
func (m *MaxPool2D) Params() []Param { return nil }

// Name implements Layer.
func (m *MaxPool2D) Name() string { return fmt.Sprintf("MaxPool2D(%dx%d)", m.PH, m.PW) }

// Flatten reshapes (B, ...) to (B, rest) for the transition from spatial
// to dense layers. The forward and backward results are allocation-free
// views over the argument's storage, held in reusable headers.
type Flatten struct {
	inShape []int
	y, dx   tensor.Tensor
}

// NewFlatten constructs a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens all non-batch dimensions.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape()...)
	f.y.Bind(x.Data, x.Dim(0), x.Len()/x.Dim(0))
	return &f.y
}

// Backward restores the original spatial shape.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	f.dx.Bind(grad.Data, f.inShape...)
	return &f.dx
}

// Params returns nil.
func (f *Flatten) Params() []Param { return nil }

// Name implements Layer.
func (f *Flatten) Name() string { return "Flatten" }
