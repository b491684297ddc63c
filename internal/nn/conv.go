package nn

import (
	"fmt"
	"math"
	"slices"

	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// ConvBlock is the classifier's convolution stage (Table II): a k×k
// stride-1, no-padding convolution, a ReLU and a 2×2 max pool, as one
// layer. Filters have shape (outC, inC*k*k); a (B, inC, H, W) input
// gives the pooled (B, outC, (H−k+1)/2, (W−k+1)/2), a last conv row or
// column that does not fill a pool window dropped.
//
// Both passes go image by image. Forward takes one image's product
// through tensor.ConvProduct (18 KB for the small classifier's first
// layer, in L1), and an epilogue adds the bias, applies the ReLU and
// writes the window maxima channel-major: no unpooled activation is
// written. A training forward retains the input and the pool's winners;
// an evaluation forward (train == false) gives the same bits, retains
// nothing, and Backward after it panics. Backward routes the pooled
// gradient to the winners where the ReLU fired, then accumulates
// dW += gradᵢ @ colsᵢ per image and scatters gradᵢᵀ @ W into dx.
//
// All work tensors are layer-owned scratch, grown on demand and reused
// across steps: steady-state training and evaluation allocate nothing
// here. The tensors returned by Forward and Backward are part of that
// scratch and remain valid only until the next call on this layer.
type ConvBlock struct {
	InC, OutC, K int
	W            *tensor.Tensor // (outC, inC*k*k)
	B            *tensor.Tensor // (outC)
	dW, dB       *tensor.Tensor

	// InputGradOff, when set, makes Backward skip the input-gradient
	// computation (the dCols matmul and col2im scatter) and return nil.
	// Set it on a network's first layer, whose input gradient nobody
	// consumes; parameter gradients are unaffected, so training results
	// are bit-identical with the flag on or off.
	InputGradOff bool

	x      *tensor.Tensor // input retained by a training forward; nil after an evaluation
	argmax []int32        // per pooled output, the flat conv-output index of its window's winner

	wT    *tensor.Tensor // (inC*k*k, outC) transposed-filter scratch
	prod  *tensor.Tensor // (outH*outW, outC) one image's product
	cols  *tensor.Tensor // (outH*outW, inC*k*k) one image's im2col: Backward's, and ConvProduct's off the tile kernels
	y     *tensor.Tensor // (B, outC, outH/2, outW/2) pooled output
	dConv *tensor.Tensor // (B, outC, outH, outW) gradient w.r.t. the convolution's output
	dCols *tensor.Tensor // (outH*outW, inC*k*k) one image's column gradient
	dx    *tensor.Tensor // (B, inC, H, W)

	xView, gView, dxView tensor.Tensor // reusable per-image view headers
}

// NewConvBlock constructs a block with He-uniform filter initialization
// drawn from r.
func NewConvBlock(inC, outC, k int, r *rng.RNG) *ConvBlock {
	fanIn := inC * k * k
	c := &ConvBlock{
		InC: inC, OutC: outC, K: k,
		W:  tensor.New(outC, fanIn),
		B:  tensor.New(outC),
		dW: tensor.New(outC, fanIn),
		dB: tensor.New(outC),
	}
	c.Reset(r)
	return c
}

// Reset implements Resetter: filters redrawn He-uniform from r, the bias
// and both gradients zero — what NewConvBlock leaves, which is this.
func (c *ConvBlock) Reset(r *rng.RNG) {
	bound := math.Sqrt(6.0 / float64(c.InC*c.K*c.K))
	r.FillUniform(c.W.Data, -bound, bound)
	c.B.Zero()
	c.dW.Zero()
	c.dB.Zero()
}

// convDims checks a (B, inC, H, W) batch and returns the convolution's
// output height and width.
func (c *ConvBlock) convDims(x *tensor.Tensor) (int, int) {
	if x.Rank() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s got input shape %v", c.Name(), x.Shape()))
	}
	outH, outW := x.Dim(2)-c.K+1, x.Dim(3)-c.K+1
	if outH < 2 || outW < 2 {
		panic(fmt.Sprintf("nn: %s input (%d,%d) leaves no pool window", c.Name(), x.Dim(2), x.Dim(3)))
	}
	return outH, outW
}

// Forward returns the pooled ReLU of the convolution of a
// (B, inC, H, W) batch plus the bias. The filters are transposed per
// call (1–2 % of a forward): a cached transpose goes stale under every
// in-place optimizer step.
func (c *ConvBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	outH, outW := c.convDims(x)
	b, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	pH, pW := outH/2, outW/2
	oHW := outH * outW
	fanIn := c.InC * c.K * c.K
	c.x = nil
	if train {
		if b*c.OutC*oHW > math.MaxInt32 {
			panic(fmt.Sprintf("nn: %s batch of %d overflows the int32 argmax", c.Name(), b))
		}
		c.x = x
		n := b * c.OutC * pH * pW
		c.argmax = slices.Grow(c.argmax[:0], n)[:n]
	}
	c.wT = tensor.Ensure(c.wT, fanIn, c.OutC)
	tensor.TransposeInto(c.wT, c.W)
	c.prod = tensor.Ensure(c.prod, oHW, c.OutC)
	c.y = tensor.Ensure(c.y, b, c.OutC, pH, pW)
	inVol, yVol := c.InC*h*w, c.OutC*pH*pW
	for i := 0; i < b; i++ {
		c.xView.Bind(x.Data[i*inVol:], c.InC, h, w)
		c.cols = tensor.ConvProduct(c.prod, &c.xView, c.wT, c.K, c.K, c.cols)
		dst := c.y.Data[i*yVol : (i+1)*yVol]
		if train {
			biasReLUPool2x2Winners(dst, c.argmax[i*yVol:(i+1)*yVol], c.prod.Data, c.B.Data, outH, outW, i*c.OutC*oHW)
		} else {
			biasReLUPool2x2(dst, c.prod.Data, c.B.Data, outH, outW)
		}
	}
	return c.y
}

// biasReLUPool2x2 writes, channel-major, the 2×2 max pool of
// ReLU(prod + bias) for one image's position-major (outH*outW, outC)
// product; rows and columns that do not fill a window are dropped.
// Behind reluBits every value is +0, positive or +Inf, and on those bit
// patterns unsigned order is float order and equal values are equal
// bits, so the integer maximum is the window's maximum.
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
// also writes to arg, for each output, base plus the flat (channel, row,
// column) index of the window's winner — the first strict maximum in the
// order 00, 01, 10, 11, which is the first of the four patterns equal to
// their maximum. That index k is computed from 0/1 flags rather than
// branched on: behind a ReLU half the values are +0, and branches on
// them mispredict about every other time.
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

// Backward takes the gradient w.r.t. the pooled output, accumulates the
// filter and bias gradients and returns the gradient w.r.t. the input
// batch (nil with InputGradOff). The returned tensor is layer scratch,
// valid until the next Backward call.
func (c *ConvBlock) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.x == nil {
		panic(fmt.Sprintf("nn: %s Backward without a training Forward", c.Name()))
	}
	if grad.Len() != len(c.argmax) {
		panic(fmt.Sprintf("nn: %s gradient length %d, want %d", c.Name(), grad.Len(), len(c.argmax)))
	}
	b, h, w := c.x.Dim(0), c.x.Dim(2), c.x.Dim(3)
	outH, outW := c.convDims(c.x)
	fanIn := c.InC * c.K * c.K
	oHW := outH * outW
	outVol := c.OutC * oHW

	// Through the pool and the ReLU: a gradient reaches its window's
	// winner only where the pooled value is nonzero, where the ReLU
	// fired. Each winner gets +0 + g, the bits of a += into a zeroed
	// buffer (a −0 gradient becomes +0); everything else is +0.
	c.dConv = tensor.Ensure(c.dConv, b, c.OutC, outH, outW)
	c.dConv.Zero()
	for i, g := range grad.Data {
		yb := math.Float32bits(c.y.Data[i])
		fired := uint32(int32(yb|-yb) >> 31)
		c.dConv.Data[c.argmax[i]] = math.Float32frombits(math.Float32bits(0+g) & fired)
	}

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
		g := c.dConv.Data[i*outVol : (i+1)*outVol]
		for ch := 0; ch < c.OutC; ch++ {
			var chSum float32
			for _, v := range g[ch*oHW : (ch+1)*oHW] {
				chSum += v
			}
			c.dB.Data[ch] += chSum
		}
		c.xView.Bind(c.x.Data[i*inVol:], c.InC, h, w)
		tensor.Im2Col(c.cols, &c.xView, c.K, c.K)
		c.gView.Bind(g, c.OutC, oHW)
		tensor.MatMulAcc(c.dW, &c.gView, c.cols)
		if !c.InputGradOff {
			tensor.MatMulTA(c.dCols, &c.gView, c.W)
			c.dxView.Bind(c.dx.Data[i*inVol:], c.InC, h, w)
			tensor.Col2Im(&c.dxView, c.dCols, c.K, c.K)
		}
	}
	if c.InputGradOff {
		return nil
	}
	return c.dx
}

// Params returns the filter and bias with their gradients.
func (c *ConvBlock) Params() []Param {
	return []Param{
		{Name: "W", Value: c.W, Grad: c.dW},
		{Name: "b", Value: c.B, Grad: c.dB},
	}
}

// Name implements Layer.
func (c *ConvBlock) Name() string {
	return fmt.Sprintf("ConvBlock(%d->%d, %dx%d)", c.InC, c.OutC, c.K, c.K)
}
