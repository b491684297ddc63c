package nn

import (
	"testing"

	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// perImageConvForward is the seed implementation of Conv2D.Forward: each
// image lowered and multiplied on its own, fresh tensors throughout. It
// is the golden reference the layer must reproduce bit-for-bit.
func perImageConvForward(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	b, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	outH, outW := h-c.KH+1, w-c.KW+1
	fanIn := c.InC * c.KH * c.KW
	y := tensor.New(b, c.OutC, outH, outW)
	imgVol := c.InC * h * w
	outVol := c.OutC * outH * outW
	for i := 0; i < b; i++ {
		img := tensor.FromSlice(x.Data[i*imgVol:(i+1)*imgVol], c.InC, h, w)
		cols := tensor.New(outH*outW, fanIn)
		tensor.Im2Col(cols, img, c.KH, c.KW)
		prod := tensor.New(outH*outW, c.OutC)
		tensor.MatMulT(prod, cols, c.W)
		dst := y.Data[i*outVol : (i+1)*outVol]
		for p := 0; p < outH*outW; p++ {
			row := prod.Data[p*c.OutC : (p+1)*c.OutC]
			for ch, v := range row {
				dst[ch*outH*outW+p] = v + c.B.Data[ch]
			}
		}
	}
	return y
}

// perImageConvBackward is the seed implementation of Conv2D.Backward:
// per-image gm build, dW scratch added in, per-image dCols and col2im.
// It consumes the per-image cols matrices of the forward reference.
func perImageConvBackward(c *Conv2D, x, grad *tensor.Tensor, dW, dB *tensor.Tensor) *tensor.Tensor {
	b := grad.Dim(0)
	h, w := x.Dim(2), x.Dim(3)
	outH, outW := h-c.KH+1, w-c.KW+1
	fanIn := c.InC * c.KH * c.KW
	imgVol := c.InC * h * w
	outVol := c.OutC * outH * outW
	dx := tensor.New(b, c.InC, h, w)
	for i := 0; i < b; i++ {
		img := tensor.FromSlice(x.Data[i*imgVol:(i+1)*imgVol], c.InC, h, w)
		cols := tensor.New(outH*outW, fanIn)
		tensor.Im2Col(cols, img, c.KH, c.KW)
		g := grad.Data[i*outVol : (i+1)*outVol]
		gm := tensor.New(outH*outW, c.OutC)
		for ch := 0; ch < c.OutC; ch++ {
			col := g[ch*outH*outW : (ch+1)*outH*outW]
			var chSum float32
			for p, v := range col {
				gm.Data[p*c.OutC+ch] = v
				chSum += v
			}
			dB.Data[ch] += chSum
		}
		dWi := tensor.New(c.OutC, fanIn)
		tensor.MatMulTA(dWi, gm, cols)
		tensor.Add(dW, dW, dWi)
		dCols := tensor.New(outH*outW, fanIn)
		tensor.MatMul(dCols, gm, c.W)
		dImg := tensor.FromSlice(dx.Data[i*imgVol:(i+1)*imgVol], c.InC, h, w)
		tensor.Col2Im(dImg, dCols, c.KH, c.KW)
	}
	return dx
}

// TestConvBatchedMatchesPerImageGolden pins the layer to the seed
// per-image path: forward output, input gradient, and both parameter
// gradients must be bit-identical, at serial and multi-worker kernel
// settings.
func TestConvBatchedMatchesPerImageGolden(t *testing.T) {
	defer tensor.SetWorkers(tensor.Workers())
	for _, workers := range []int{1, 4} {
		tensor.SetWorkers(workers)
		r := rng.New(0xc0147)
		conv := NewConv2D(2, 7, 3, 3, r)
		x := tensor.New(5, 2, 11, 9)
		r.FillNormal(x.Data, 0, 1)
		g := tensor.New(5, 7, 9, 7)
		r.FillNormal(g.Data, 0, 1)

		wantY := perImageConvForward(conv, x)
		gotY := conv.Forward(x, true)
		if !bitEqual(gotY.Data, wantY.Data) {
			t.Fatalf("workers=%d: forward differs from the seed per-image path", workers)
		}

		wantDW := tensor.New(conv.OutC, conv.InC*conv.KH*conv.KW)
		wantDB := tensor.New(conv.OutC)
		wantDX := perImageConvBackward(conv, x, g, wantDW, wantDB)
		gotDX := conv.Backward(g)
		if !bitEqual(gotDX.Data, wantDX.Data) {
			t.Fatalf("workers=%d: input gradient differs from the seed per-image path", workers)
		}
		if !bitEqual(conv.dW.Data, wantDW.Data) {
			t.Fatalf("workers=%d: dW differs from the seed per-image path", workers)
		}
		if !bitEqual(conv.dB.Data, wantDB.Data) {
			t.Fatalf("workers=%d: dB differs from the seed per-image path", workers)
		}
	}
}

// TestConvScratchSurvivesBatchSizeChange drives the same layer with
// shrinking and growing batch sizes — the Ensure-based scratch must
// resize without corrupting results.
func TestConvScratchSurvivesBatchSizeChange(t *testing.T) {
	r := rng.New(0x51e5)
	conv := NewConv2D(1, 4, 3, 3, r)
	for _, b := range []int{6, 2, 9, 1} {
		x := tensor.New(b, 1, 8, 8)
		r.FillNormal(x.Data, 0, 1)
		want := perImageConvForward(conv, x)
		got := conv.Forward(x, true)
		if !bitEqual(got.Data, want.Data) {
			t.Fatalf("batch %d: forward mismatch after scratch resize", b)
		}
		g := tensor.New(b, 4, 6, 6)
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
