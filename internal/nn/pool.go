package nn

import (
	"fmt"
	"math"

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

// Forward computes the pooled output and records argmax indices for the
// backward pass.
func (m *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: %s got input shape %v", m.Name(), x.Shape()))
	}
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	outH, outW := h/m.PH, w/m.PW
	if outH == 0 || outW == 0 {
		panic(fmt.Sprintf("nn: %s window larger than input (%d,%d)", m.Name(), h, w))
	}
	m.inShape = append(m.inShape[:0], b, c, h, w)
	m.y = tensor.Ensure(m.y, b, c, outH, outW)
	if x.Len() > math.MaxInt32 {
		panic(fmt.Sprintf("nn: %s input of %d elements overflows the int32 argmax", m.Name(), x.Len()))
	}
	if cap(m.argmax) >= m.y.Len() {
		m.argmax = m.argmax[:m.y.Len()]
	} else {
		m.argmax = make([]int32, m.y.Len())
	}
	if m.PH == 2 && m.PW == 2 {
		m.forward2x2(x.Data, b*c, h, w)
		return m.y
	}
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

// forward2x2 is Forward for the 2×2 window every model in the repo
// uses, over `planes` (batch × channel) contiguous h×w planes. It visits
// the window in the generic loop's order with the same strict
// comparison against the running best, so ties, -0 and NaN resolve
// identically — but each comparison only yields a 0/1 the winner's index
// is computed from, and the running best is re-read through that index.
// The generic loop branches on every element, and behind a ReLU (half
// the inputs exactly zero) those branches mispredict constantly.
func (m *MaxPool2D) forward2x2(x []float32, planes, h, w int) {
	outH, outW := h/2, w/2
	out := 0
	for p := 0; p < planes; p++ {
		for oy := 0; oy < outH; oy++ {
			top := p*h*w + 2*oy*w
			win := x[top:][:2*w] // rows 2oy and 2oy+1: win[j] and win[w+j]
			y := m.y.Data[out:][:outW]
			arg := m.argmax[out:][:outW]
			for ox := range y {
				best := 2 * ox
				best += (2*ox + 1 - best) & -greater(win[2*ox+1], win[best])
				best += (w + 2*ox - best) & -greater(win[w+2*ox], win[best])
				best += (w + 2*ox + 1 - best) & -greater(win[w+2*ox+1], win[best])
				y[ox] = win[best]
				arg[ox] = int32(top + best)
			}
			out += outW
		}
	}
}

// greater returns 1 if a > b and 0 otherwise (also for NaN), as a value
// rather than a branch: the compiler materializes the flag with SETcc.
func greater(a, b float32) int {
	var g int
	if a > b {
		g = 1
	}
	return g
}

// Backward routes each output gradient to the input position that won the
// max.
func (m *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if grad.Len() != len(m.argmax) {
		panic(fmt.Sprintf("nn: %s gradient length %d, want %d", m.Name(), grad.Len(), len(m.argmax)))
	}
	m.dx = tensor.Ensure(m.dx, m.inShape...)
	m.dx.Zero()
	for i, g := range grad.Data {
		m.dx.Data[m.argmax[i]] += g
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
