package nn

import (
	"slices"
	"testing"

	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// refForward is ConvBlock.Forward by its definition, one output at a
// time: each convolution output one float32 sum over p = (channel,
// kernel row, kernel column) ascending from +0, plus the bias; the ReLU
// as a comparison; each pooled output the window's first strict maximum
// in the order 00, 01, 10, 11, with its flat conv-output index.
func refForward(c *ConvBlock, x *tensor.Tensor) (*tensor.Tensor, []int32) {
	b, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	outH, outW := h-c.K+1, w-c.K+1
	pH, pW := outH/2, outW/2
	act := make([]float32, b*c.OutC*outH*outW)
	for i := 0; i < b; i++ {
		for co := 0; co < c.OutC; co++ {
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					var acc float32
					for ci := 0; ci < c.InC; ci++ {
						for ky := 0; ky < c.K; ky++ {
							for kx := 0; kx < c.K; kx++ {
								acc += x.Data[((i*c.InC+ci)*h+oy+ky)*w+ox+kx] * c.W.Data[(co*c.InC+ci)*c.K*c.K+ky*c.K+kx]
							}
						}
					}
					v := acc + c.B.Data[co]
					if !(v > 0) {
						v = 0
					}
					act[((i*c.OutC+co)*outH+oy)*outW+ox] = v
				}
			}
		}
	}
	y := tensor.New(b, c.OutC, pH, pW)
	arg := make([]int32, y.Len())
	for plane := 0; plane < b*c.OutC; plane++ {
		for py := 0; py < pH; py++ {
			for px := 0; px < pW; px++ {
				best := plane*outH*outW + 2*py*outW + 2*px
				for _, d := range []int{1, outW, outW + 1} {
					if act[plane*outH*outW+2*py*outW+2*px+d] > act[best] {
						best = plane*outH*outW + 2*py*outW + 2*px + d
					}
				}
				o := (plane*pH+py)*pW + px
				y.Data[o], arg[o] = act[best], int32(best)
			}
		}
	}
	return y, arg
}

// refBackward is ConvBlock.Backward by its definition, given what
// refForward returned: the pooled gradient added into a zeroed buffer at
// each window's winner and kept where the ReLU fired, then per image dB
// and dW (each a sum from +0 added once) accumulated into dW and dB, and
// the column gradient scattered into dx in ascending (oy, ox) order. It
// returns the gradient w.r.t. the convolution's output and dx.
func refBackward(c *ConvBlock, x, y *tensor.Tensor, arg []int32, g *tensor.Tensor, dW, dB *tensor.Tensor) (dConv, dx *tensor.Tensor) {
	b, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	outH, outW := h-c.K+1, w-c.K+1
	oHW, fanIn := outH*outW, c.InC*c.K*c.K
	dConv = tensor.New(b, c.OutC, outH, outW)
	for i, v := range g.Data {
		if y.Data[i] > 0 {
			dConv.Data[arg[i]] += v
		}
	}
	dx = tensor.New(b, c.InC, h, w)
	for i := 0; i < b; i++ {
		gi := dConv.Data[i*c.OutC*oHW:]
		for co := 0; co < c.OutC; co++ {
			var s float32
			for pos := 0; pos < oHW; pos++ {
				s += gi[co*oHW+pos]
			}
			dB.Data[co] += s
		}
		for co := 0; co < c.OutC; co++ {
			for p := 0; p < fanIn; p++ {
				ci, ky, kx := p/(c.K*c.K), p/c.K%c.K, p%c.K
				var s float32
				for pos := 0; pos < oHW; pos++ {
					s += gi[co*oHW+pos] * x.Data[((i*c.InC+ci)*h+pos/outW+ky)*w+pos%outW+kx]
				}
				dW.Data[co*fanIn+p] += s
			}
		}
		for pos := 0; pos < oHW; pos++ {
			for p := 0; p < fanIn; p++ {
				ci, ky, kx := p/(c.K*c.K), p/c.K%c.K, p%c.K
				var s float32
				for co := 0; co < c.OutC; co++ {
					s += gi[co*oHW+pos] * c.W.Data[co*fanIn+p]
				}
				dx.Data[((i*c.InC+ci)*h+pos/outW+ky)*w+pos%outW+kx] += s
			}
		}
	}
	return dConv, dx
}

// TestConvBatchedMatchesPerImageGolden pins the block to its definition
// (refForward, refBackward): pooled output, winners, input gradient and
// both parameter gradients bit-identical, at serial and multi-worker
// kernel settings.
func TestConvBatchedMatchesPerImageGolden(t *testing.T) {
	defer tensor.SetWorkers(tensor.Workers())
	for _, workers := range []int{1, 4} {
		tensor.SetWorkers(workers)
		r := rng.New(0xc0147)
		conv := NewConvBlock(2, 7, 3, r)
		x := tensor.New(5, 2, 11, 9)
		r.FillNormal(x.Data, 0, 1)
		g := tensor.New(5, 7, 4, 3)
		r.FillNormal(g.Data, 0, 1)

		wantY, wantArg := refForward(conv, x)
		gotY := conv.Forward(x, true)
		if !bitEqual(gotY.Data, wantY.Data) || !slices.Equal(conv.argmax, wantArg) {
			t.Fatalf("workers=%d: forward differs from the definition", workers)
		}

		wantDW := tensor.New(conv.OutC, conv.InC*conv.K*conv.K)
		wantDB := tensor.New(conv.OutC)
		_, wantDX := refBackward(conv, x, wantY, wantArg, g, wantDW, wantDB)
		gotDX := conv.Backward(g)
		if !bitEqual(gotDX.Data, wantDX.Data) {
			t.Fatalf("workers=%d: input gradient differs from the definition", workers)
		}
		if !bitEqual(conv.dW.Data, wantDW.Data) {
			t.Fatalf("workers=%d: dW differs from the definition", workers)
		}
		if !bitEqual(conv.dB.Data, wantDB.Data) {
			t.Fatalf("workers=%d: dB differs from the definition", workers)
		}
	}
}

// TestConvScratchSurvivesBatchSizeChange drives the same block with
// shrinking and growing batch sizes — the Ensure-based scratch must
// resize without corrupting results.
func TestConvScratchSurvivesBatchSizeChange(t *testing.T) {
	r := rng.New(0x51e5)
	conv := NewConvBlock(1, 4, 3, r)
	for _, b := range []int{6, 2, 9, 1} {
		x := tensor.New(b, 1, 8, 8)
		r.FillNormal(x.Data, 0, 1)
		want, _ := refForward(conv, x)
		got := conv.Forward(x, true)
		if !bitEqual(got.Data, want.Data) {
			t.Fatalf("batch %d: forward mismatch after scratch resize", b)
		}
		g := tensor.New(b, 4, 3, 3)
		r.FillNormal(g.Data, 0, 1)
		conv.Backward(g) // exercises backward scratch resize paths
	}
}

func bitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
