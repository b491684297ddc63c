package nn

import (
	"fmt"
	"math"

	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// Conv2D is a stride-1, no-padding 2-D convolution (the configuration
// used by the paper's MNIST classifier, Table II). Filters have shape
// (outC, inC*kh*kw); inputs have shape (B, inC, H, W).
//
// The training forward pass lowers the whole batch into one im2col
// matrix and multiplies by the filter matrix in a single large matmul;
// the backward pass computes the input gradient per image straight from
// the channel-major gradient blocks and scatters each image's columns
// with col2im while they are still in cache.
// Filter gradients are accumulated per image (dW += gradᵢ @ colsᵢ) so
// the partial-sum association — and therefore every bit of the gradient
// — matches the original per-image path exactly.
//
// An evaluation forward (train == false) gives the same bits and keeps
// nothing for Backward: it goes image by image through
// tensor.ConvProduct into one image's product, retains no input and no
// im2col matrix, and inside a Sequential takes the ReLU and 2×2 pool
// that follow it in the same pass (forwardEval). A layer that has only
// evaluated holds that product, its output and the transposed filters.
//
// All work tensors are layer-owned scratch, grown on demand and reused
// across steps: steady-state training and evaluation allocate nothing
// here. The tensors returned by Forward and Backward are part of that
// scratch and remain valid only until the next call on this layer.
type Conv2D struct {
	InC, OutC, KH, KW int
	W                 *tensor.Tensor // (outC, inC*kh*kw)
	B                 *tensor.Tensor // (outC)
	dW, dB            *tensor.Tensor

	// InputGradOff, when set, makes Backward skip the input-gradient
	// computation (the dCols matmul and col2im scatter) and return nil.
	// Set it on a network's first layer, whose input gradient nobody
	// consumes; parameter gradients are unaffected, so training results
	// are bit-identical with the flag on or off.
	InputGradOff bool

	x *tensor.Tensor // input retained by a training forward; nil after an evaluation

	cols  *tensor.Tensor // (B*outH*outW, inC*kh*kw) batched im2col
	prod  *tensor.Tensor // (B*outH*outW, outC) cols @ Wᵀ; one image's rows in evaluation
	wT    *tensor.Tensor // (inC*kh*kw, outC) transposed-filter scratch
	y     *tensor.Tensor // (B, outC, outH, outW); the pooled (B, outC, outH/2, outW/2) from a fused evaluation
	dCols *tensor.Tensor // (outH*outW, inC*kh*kw) one image's column gradient
	dx    *tensor.Tensor // (B, inC, H, W)

	xView, gView, colsView, dxView tensor.Tensor // reusable per-image view headers
}

// NewConv2D constructs a convolution layer with He-uniform weight
// initialization drawn from r.
func NewConv2D(inC, outC, kh, kw int, r *rng.RNG) *Conv2D {
	fanIn := inC * kh * kw
	c := &Conv2D{
		InC: inC, OutC: outC, KH: kh, KW: kw,
		W:  tensor.New(outC, fanIn),
		B:  tensor.New(outC),
		dW: tensor.New(outC, fanIn),
		dB: tensor.New(outC),
	}
	c.Reset(r)
	return c
}

// Reset implements Resetter: filters redrawn He-uniform from r, the bias
// and both gradients zero — what NewConv2D leaves, which is this.
func (c *Conv2D) Reset(r *rng.RNG) {
	bound := math.Sqrt(6.0 / float64(c.InC*c.KH*c.KW))
	r.FillUniform(c.W.Data, -bound, bound)
	c.B.Zero()
	c.dW.Zero()
	c.dB.Zero()
}

func (c *Conv2D) outDims(h, w int) (int, int) { return h - c.KH + 1, w - c.KW + 1 }

// outShape checks a (B, inC, H, W) batch and returns its output height
// and width.
func (c *Conv2D) outShape(x *tensor.Tensor) (int, int) {
	if x.Rank() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s got input shape %v", c.Name(), x.Shape()))
	}
	outH, outW := c.outDims(x.Dim(2), x.Dim(3))
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("nn: %s kernel larger than input (%d,%d)", c.Name(), x.Dim(2), x.Dim(3)))
	}
	return outH, outW
}

// Forward computes the convolution of a (B, inC, H, W) batch, producing
// (B, outC, outH, outW). The returned tensor is layer scratch, valid
// until the next Forward call.
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train {
		return c.forwardEval(x, nil)
	}
	outH, outW := c.outShape(x)
	b := x.Dim(0)
	c.x = x
	fanIn := c.InC * c.KH * c.KW
	oHW := outH * outW

	c.cols = tensor.Ensure(c.cols, b*oHW, fanIn)
	tensor.Im2ColBatch(c.cols, x, c.KH, c.KW)

	// prod (B*oHW, outC) = cols @ Wᵀ — one large matmul for the whole
	// batch. Each output element is the same fanIn-term dot product the
	// per-image path computed, so the result is bit-identical; on the
	// SIMD path a transposed-filter scratch turns it into the
	// vector-friendly plain product (same ascending-fanIn sums).
	c.prod = tensor.Ensure(c.prod, b*oHW, c.OutC)
	if tensor.HasVectorKernels() {
		c.wT = tensor.Ensure(c.wT, fanIn, c.OutC)
		tensor.TransposeInto(c.wT, c.W)
		tensor.MatMul(c.prod, c.cols, c.wT)
	} else {
		tensor.MatMulT(c.prod, c.cols, c.W)
	}

	c.y = tensor.Ensure(c.y, b, c.OutC, outH, outW)
	outVol := c.OutC * oHW
	for i := 0; i < b; i++ {
		addBiasChannelMajor(c.y.Data[i*outVol:(i+1)*outVol], c.prod.Data[i*outVol:], c.B.Data, oHW)
	}
	return c.y
}

// addBiasChannelMajor transposes one image's (oHW, outC) product into
// channel-major layout and adds the bias.
func addBiasChannelMajor(dst, prod, bias []float32, oHW int) {
	outC := len(bias)
	for p := 0; p < oHW; p++ {
		row := prod[p*outC : (p+1)*outC]
		for ch, v := range row {
			dst[ch*oHW+p] = v + bias[ch]
		}
	}
}

// forwardEval is Forward(x, false) when pool is nil. With pool, a 2×2
// MaxPool2D, it returns what pool would after this layer and a ReLU —
// how Sequential evaluates the three in a row. Every element is the sum
// the training forward forms, the same bias add, ReLU.Forward's mask
// and the window's maximum, so the bits are those of the training
// forwards; what differs is what exists afterwards: one image's
// position-major product at a time (18 KB for the small classifier's
// first layer, so the epilogue reads it from L1), the output written
// channel-major straight from it, and no retained input, im2col matrix,
// unpooled activation or argmax. The filters are transposed once per
// call rather than cached: that is 1–2 % of a forward, and a cached
// transpose goes stale under every in-place optimizer step.
func (c *Conv2D) forwardEval(x *tensor.Tensor, pool *MaxPool2D) *tensor.Tensor {
	outH, outW := c.outShape(x)
	b, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	c.x = nil
	fanIn := c.InC * c.KH * c.KW
	oHW := outH * outW

	yH, yW := outH, outW
	if pool != nil {
		if yH, yW = outH/2, outW/2; yH == 0 || yW == 0 {
			panic(fmt.Sprintf("nn: %s window larger than input (%d,%d)", pool.Name(), outH, outW))
		}
	}
	c.wT = tensor.Ensure(c.wT, fanIn, c.OutC)
	tensor.TransposeInto(c.wT, c.W)
	c.prod = tensor.Ensure(c.prod, oHW, c.OutC)
	c.y = tensor.Ensure(c.y, b, c.OutC, yH, yW)
	inVol, yVol := c.InC*h*w, c.OutC*yH*yW
	for i := 0; i < b; i++ {
		c.xView.Bind(x.Data[i*inVol:], c.InC, h, w)
		c.cols = tensor.ConvProduct(c.prod, &c.xView, c.wT, c.KH, c.KW, c.cols)
		dst := c.y.Data[i*yVol : (i+1)*yVol]
		if pool != nil {
			biasReLUPool2x2(dst, c.prod.Data, c.B.Data, outH, outW)
		} else {
			addBiasChannelMajor(dst, c.prod.Data, c.B.Data, oHW)
		}
	}
	return c.y
}

// biasReLUPool2x2 writes, channel-major, the 2×2 max pool of
// ReLU(prod + bias) for one image's position-major (outH*outW, outC)
// product; rows and columns that do not fill a window are dropped.
// Behind reluBits every value is +0, positive or +Inf, and on those bit
// patterns unsigned order is float order and equal values are equal
// bits, so the integer maximum is the value MaxPool2D's strict
// comparison keeps.
func biasReLUPool2x2(dst, prod, bias []float32, outH, outW int) {
	outC := len(bias)
	pH, pW := outH/2, outW/2
	for py := 0; py < pH; py++ {
		for px := 0; px < pW; px++ {
			// The window's four positions, each outC channels long.
			top := prod[(2*py*outW+2*px)*outC:]
			bot := prod[((2*py+1)*outW+2*px)*outC:]
			w00, w01 := top[:outC], top[outC:2*outC]
			w10, w11 := bot[:outC], bot[outC:2*outC]
			out := dst[py*pW+px:]
			for ch, bv := range bias {
				m := max(reluBits(w00[ch]+bv), reluBits(w01[ch]+bv), reluBits(w10[ch]+bv), reluBits(w11[ch]+bv))
				out[ch*pH*pW] = math.Float32frombits(m)
			}
		}
	}
}

// Backward accumulates filter/bias gradients and returns the gradient
// w.r.t. the input batch. The returned tensor is layer scratch, valid
// until the next Backward call.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.x == nil {
		panic(fmt.Sprintf("nn: %s Backward without a training Forward", c.Name()))
	}
	b := grad.Dim(0)
	h, w := c.x.Dim(2), c.x.Dim(3)
	outH, outW := c.outDims(h, w)
	if grad.Dim(1) != c.OutC || grad.Dim(2) != outH || grad.Dim(3) != outW {
		panic(fmt.Sprintf("nn: %s got gradient shape %v", c.Name(), grad.Shape()))
	}
	fanIn := c.InC * c.KH * c.KW
	oHW := outH * outW
	outVol := c.OutC * oHW

	// Per image, the incoming gradient block is already channel-major
	// (outC, oHW) — exactly the left operand both gradient products
	// need, so no transpose buffer is built. dB sums each contiguous
	// channel row; dW += gradᵢ @ colsᵢ accumulates per image so the
	// partial-sum association (and therefore every bit of the gradient)
	// matches the original per-image path; dColsᵢ = gradᵢᵀ @ W sums over
	// channels in the same ascending order the batched product would.
	// The Bind views avoid any per-image allocation. dColsᵢ is scattered
	// into dxᵢ straight away: one image's columns (51 KB for the small
	// classifier's second layer) stay in L1/L2 between the product and
	// the scatter, and the layer holds one image of them, not a batch.
	if !c.InputGradOff {
		c.dCols = tensor.Ensure(c.dCols, oHW, fanIn)
		c.dx = tensor.Ensure(c.dx, b, c.InC, h, w)
	}
	inVol := c.InC * h * w
	for i := 0; i < b; i++ {
		g := grad.Data[i*outVol : (i+1)*outVol]
		for ch := 0; ch < c.OutC; ch++ {
			row := g[ch*oHW : (ch+1)*oHW]
			var chSum float32
			for _, v := range row {
				chSum += v
			}
			c.dB.Data[ch] += chSum
		}
		c.gView.Bind(g, c.OutC, oHW)
		c.colsView.Bind(c.cols.Data[i*oHW*fanIn:], oHW, fanIn)
		tensor.MatMulAcc(c.dW, &c.gView, &c.colsView)
		if !c.InputGradOff {
			tensor.MatMulTA(c.dCols, &c.gView, c.W)
			c.dxView.Bind(c.dx.Data[i*inVol:], c.InC, h, w)
			tensor.Col2Im(&c.dxView, c.dCols, c.KH, c.KW)
		}
	}
	if c.InputGradOff {
		return nil
	}
	return c.dx
}

// Params returns the filter and bias with their gradients.
func (c *Conv2D) Params() []Param {
	return []Param{
		{Name: "W", Value: c.W, Grad: c.dW},
		{Name: "b", Value: c.B, Grad: c.dB},
	}
}

// Name implements Layer.
func (c *Conv2D) Name() string {
	return fmt.Sprintf("Conv2D(%d->%d, %dx%d)", c.InC, c.OutC, c.KH, c.KW)
}
