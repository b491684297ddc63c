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
// Both passes go image by image. Forward writes one image's product
// through tensor.ConvProduct and an epilogue writes it channel-major with
// the bias added (inside a Sequential, with the ReLU and 2×2 pool that
// follow: forward). A training forward retains the input; an evaluation
// forward (train == false) gives the same bits, retains nothing, and
// Backward after it panics. Backward accumulates dW += gradᵢ @ colsᵢ per
// image, so every bit of the gradient is the original per-image path's.
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

	wT    *tensor.Tensor // (inC*kh*kw, outC) transposed-filter scratch
	prod  *tensor.Tensor // (outH*outW, outC) one image's product
	cols  *tensor.Tensor // (outH*outW, inC*kh*kw) one image's im2col: Backward's, and ConvProduct's off the tile kernels
	y     *tensor.Tensor // (B, outC, outH, outW); the pooled (B, outC, outH/2, outW/2) of a block
	dCols *tensor.Tensor // (outH*outW, inC*kh*kw) one image's column gradient
	dx    *tensor.Tensor // (B, inC, H, W)

	xView, gView, dxView tensor.Tensor // reusable per-image view headers
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
	return c.forward(x, train, nil)
}

// forward is Forward when pool is nil. With pool, a 2×2 MaxPool2D, it
// returns what pool would after this layer and a ReLU, with the same
// bits: the same sums, bias add, ReLU mask and window maximum, read from
// one image's product (18 KB for the small classifier's first layer, in
// L1). No unpooled activation or ReLU output is written; a training
// forward leaves the pool its argmax. The filters are transposed per call
// (1–2 % of a forward): a cached transpose goes stale under every
// in-place optimizer step.
func (c *Conv2D) forward(x *tensor.Tensor, train bool, pool *MaxPool2D) *tensor.Tensor {
	outH, outW := c.outShape(x)
	b, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	c.x = nil
	if train {
		c.x = x
	}
	fanIn := c.InC * c.KH * c.KW
	oHW := outH * outW

	yH, yW := outH, outW
	if pool != nil {
		yH, yW = pool.outDims(outH, outW)
		if train {
			pool.expect(b, c.OutC, outH, outW)
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
		switch {
		case pool == nil:
			addBiasChannelMajor(dst, c.prod.Data, c.B.Data, oHW)
		case train:
			biasReLUPool2x2Winners(dst, pool.argmax[i*yVol:(i+1)*yVol], c.prod.Data, c.B.Data, outH, outW, i*c.OutC*oHW)
		default:
			biasReLUPool2x2(dst, c.prod.Data, c.B.Data, outH, outW)
		}
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

// biasReLUPool2x2Winners is biasReLUPool2x2 for a training forward: it
// also writes to arg, for each output, where the pool's argmax points —
// base plus the flat (channel, row, column) index of the window's first
// strict maximum in MaxPool2D.Forward's order 00, 01, 10, 11, which is
// the first of the four patterns equal to their maximum. That index k is
// computed from 0/1 flags rather than branched on: behind a ReLU half the
// values are +0, and branches on them mispredict about every other time.
func biasReLUPool2x2Winners(dst []float32, arg []int32, prod, bias []float32, outH, outW, base int) {
	outC := len(bias)
	pH, pW := outH/2, outW/2
	for py := 0; py < pH; py++ {
		for px := 0; px < pW; px++ {
			p := 2*py*outW + 2*px // the window's first position
			top, bot := prod[p*outC:], prod[(p+outW)*outC:]
			w00, w01 := top[:outC], top[outC:2*outC]
			w10, w11 := bot[:outC], bot[outC:2*outC]
			o := py*pW + px
			for ch, bv := range bias {
				v0, v1 := reluBits(w00[ch]+bv), reluBits(w01[ch]+bv)
				v2, v3 := reluBits(w10[ch]+bv), reluBits(w11[ch]+bv)
				m := max(v0, v1, v2, v3)
				k := differs(v0, m) * (1 + differs(v1, m)*(1+differs(v2, m)))
				dst[ch*pH*pW+o] = math.Float32frombits(m)
				arg[ch*pH*pW+o] = int32(base + ch*outH*outW + p + (k>>1)*outW + k&1)
			}
		}
	}
}

// differs returns 1 if a != b and 0 otherwise: a^b + 2³²−1 carries into
// bit 32 exactly when a^b is nonzero.
func differs(a, b uint32) int { return int((uint64(a^b) + 0xffffffff) >> 32) }

// Backward accumulates filter/bias gradients and returns the gradient
// w.r.t. the input batch. The returned tensor is layer scratch, valid
// until the next Backward call.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor { return c.backward(grad, nil) }

// backward is Backward when pool is nil. With the pool of a block that
// forward ran, grad is w.r.t. the pooled output, and the pool first
// routes it back through itself and the ReLU (MaxPool2D.backward).
func (c *Conv2D) backward(grad *tensor.Tensor, pool *MaxPool2D) *tensor.Tensor {
	if c.x == nil {
		panic(fmt.Sprintf("nn: %s Backward without a training Forward", c.Name()))
	}
	if pool != nil {
		grad = pool.backward(grad, c.y)
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

	// Per image, the gradient block is already channel-major (outC, oHW),
	// the left operand of both products. colsᵢ (51 KB for the small
	// classifier's second layer) is built right before dW += gradᵢ @ colsᵢ
	// and dColsᵢ = gradᵢᵀ @ W scattered into dxᵢ right after, both still
	// in cache; the layer holds one image of each, never a batch.
	c.cols = tensor.Ensure(c.cols, oHW, fanIn)
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
		c.xView.Bind(c.x.Data[i*inVol:], c.InC, h, w)
		tensor.Im2Col(c.cols, &c.xView, c.KH, c.KW)
		c.gView.Bind(g, c.OutC, oHW)
		tensor.MatMulAcc(c.dW, &c.gView, c.cols)
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
