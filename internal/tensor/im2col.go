package tensor

import "fmt"

// Im2Col unrolls sliding convolution windows of a (C, H, W) image into a
// matrix of shape (outH*outW, C*kh*kw) so convolution reduces to a matrix
// multiply with the (outC, C*kh*kw) filter matrix. Stride is 1 and there
// is no padding, matching the paper's classifier (Table II).
//
// dst must have shape (outH*outW, C*kh*kw) where outH = H-kh+1 and
// outW = W-kw+1.
func Im2Col(dst, img *Tensor, kh, kw int) {
	if img.Rank() != 3 {
		panic("tensor: Im2Col requires a (C,H,W) image")
	}
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	outH, outW := h-kh+1, w-kw+1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col kernel (%d,%d) larger than image (%d,%d)", kh, kw, h, w))
	}
	cols := c * kh * kw
	if dst.Dim(0) != outH*outW || dst.Dim(1) != cols {
		panic(fmt.Sprintf("tensor: Im2Col dst shape %v, want (%d,%d)", dst.Shape(), outH*outW, cols))
	}
	im2colImage(dst.Data, img.Data, c, h, w, kh, kw)
}

// ConvProduct computes dst = Im2Col(img) @ wT — one (C, H, W) image's
// stride-1 convolution with the transposed filter matrix wT
// (C*kh*kw, outC), position-major: dst is (outH*outW, outC). With AVX,
// outC a multiple of 8 and outW a multiple of the tile height it reads
// the windows in place (convProductAVX, mm_amd64.go); otherwise it is
// literally Im2Col into cols and MatMul. Either way every element is one
// sum over p = (channel, kernel row, kernel column) ascending from +0,
// the summation-order contract of matmul.go, so the two give the same
// bits. Like the matmul tiles the direct kernels multiply zeros through,
// so that contract's caveat about non-finite operands applies unchanged.
//
// cols is scratch only the second form touches: it is grown on demand
// (Ensure) and returned, and stays nil for a caller that never needs it.
func ConvProduct(dst, img, wT *Tensor, kh, kw int, cols *Tensor) *Tensor {
	if img.Rank() != 3 || wT.Rank() != 2 || dst.Rank() != 2 {
		panic("tensor: ConvProduct requires a (C,H,W) image and rank-2 filters and product")
	}
	c, h, w := img.Dim(0), img.Dim(1), img.Dim(2)
	outH, outW := h-kh+1, w-kw+1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("tensor: ConvProduct kernel (%d,%d) larger than image (%d,%d)", kh, kw, h, w))
	}
	fanIn, outC := c*kh*kw, wT.Dim(1)
	if wT.Dim(0) != fanIn {
		panic(fmt.Sprintf("tensor: ConvProduct filter shape %v, want (%d,outC)", wT.shape, fanIn))
	}
	if dst.Dim(0) != outH*outW || dst.Dim(1) != outC {
		panic(fmt.Sprintf("tensor: ConvProduct dst shape %v, want (%d,%d)", dst.shape, outH*outW, outC))
	}
	if convProductAVX(dst.Data, img.Data, wT.Data, c, h, w, kh, kw, outC) {
		return cols
	}
	cols = Ensure(cols, outH*outW, fanIn)
	im2colImage(cols.Data, img.Data, c, h, w, kh, kw)
	MatMul(dst, cols, wT)
	return cols
}

// im2colImage lowers one image. For each output row oy it walks the
// (channel, kernel-row) source segments once and deals every segment's
// kw-wide windows out to the outW matrix rows of that output row: the
// inner loop is one sliding window over a contiguous source row, and
// the outW·cols block it scatters into stays in L1 for all c·kh passes.
func im2colImage(dst, src []float32, c, h, w, kh, kw int) {
	outH, outW := h-kh+1, w-kw+1
	cols := c * kh * kw
	for oy := 0; oy < outH; oy++ {
		block := dst[oy*outW*cols:][:outW*cols]
		for ch := 0; ch < c; ch++ {
			for ky := 0; ky < kh; ky++ {
				seg := src[ch*h*w+(oy+ky)*w:][:w]
				off := (ch*kh + ky) * kw
				if kw == 5 {
					im2colWindows5(block[off:], seg, cols, outW)
					continue
				}
				for ox := 0; ox < outW; ox++ {
					d := block[ox*cols+off:][:kw]
					for kx := range d {
						d[kx] = seg[ox+kx]
					}
				}
			}
		}
	}
}

// im2colWindows5 is the inner loop of im2colImage for the 5-wide
// kernels every conv in the repo uses: window ox of seg goes to
// block[ox*cols:]. Five scalar moves in a function of its own: the
// compiler turns a [5]float32 assignment into a memmove call, and
// inlined into the five-deep loop nest it spills every index to the
// stack (measured 265 µs inlined vs 195 µs as a call for conv1 at
// B = 32; the copy-per-window loop it replaces took 480 µs).
//
//go:noinline
func im2colWindows5(block, seg []float32, cols, outW int) {
	for ox := 0; ox < outW; ox++ {
		d := block[ox*cols:][:5]
		s := seg[ox:][:5]
		d[0], d[1], d[2], d[3], d[4] = s[0], s[1], s[2], s[3], s[4]
	}
}

// Col2Im scatters gradient columns back into an image gradient,
// accumulating where windows overlap. It is the adjoint of Im2Col: cols
// has shape (outH*outW, C*kh*kw) and dst has shape (C, H, W). dst is
// zeroed first.
func Col2Im(dst, cols *Tensor, kh, kw int) {
	if dst.Rank() != 3 {
		panic("tensor: Col2Im requires a (C,H,W) destination")
	}
	c, h, w := dst.Dim(0), dst.Dim(1), dst.Dim(2)
	outH, outW := h-kh+1, w-kw+1
	nCols := c * kh * kw
	if cols.Dim(0) != outH*outW || cols.Dim(1) != nCols {
		panic(fmt.Sprintf("tensor: Col2Im cols shape %v, want (%d,%d)", cols.Shape(), outH*outW, nCols))
	}
	dst.Zero()
	col2imImage(dst.Data, cols.Data, c, h, w, kh, kw)
}

// col2imImage scatters one image's columns, in im2colImage's loop order.
// Every destination pixel still receives its overlapping windows'
// contributions in ascending (oy, ox) order — for a fixed output row,
// channel and kernel row the windows are visited left to right exactly
// as the row-major (oy, ox, ch, ky, kx) nest visited them — so the sums
// are bit-identical to that nest's.
func col2imImage(dst, src []float32, c, h, w, kh, kw int) {
	outH, outW := h-kh+1, w-kw+1
	nCols := c * kh * kw
	for oy := 0; oy < outH; oy++ {
		block := src[oy*outW*nCols:][:outW*nCols]
		for ch := 0; ch < c; ch++ {
			for ky := 0; ky < kh; ky++ {
				seg := dst[ch*h*w+(oy+ky)*w:][:w]
				off := (ch*kh + ky) * kw
				if kw == 5 {
					col2imWindows5(seg, block[off:], nCols, outW)
					continue
				}
				for ox := 0; ox < outW; ox++ {
					s := block[ox*nCols+off:][:kw]
					for kx, v := range s {
						seg[ox+kx] += v
					}
				}
			}
		}
	}
}

// col2imWindows5 adds window ox of block (at block[ox*cols:]) onto
// seg[ox:ox+5] for ox ascending. The five pixels under the sliding
// window ride in registers: a pixel is loaded once when the window
// reaches it, takes its up-to-five additions in window order, and is
// stored once when the window leaves it — the same additions in the
// same order as adding each window in memory, without five
// read-modify-writes per window chained through the store buffer.
//
//go:noinline
func col2imWindows5(seg, block []float32, cols, outW int) {
	seg = seg[:outW+4]
	a0, a1, a2, a3 := seg[0], seg[1], seg[2], seg[3]
	for ox := 0; ox < outW; ox++ {
		s := block[ox*cols:][:5]
		a4 := seg[ox+4]
		a0 += s[0]
		a1 += s[1]
		a2 += s[2]
		a3 += s[3]
		a4 += s[4]
		seg[ox] = a0
		a0, a1, a2, a3 = a1, a2, a3, a4
	}
	seg[outW], seg[outW+1], seg[outW+2], seg[outW+3] = a0, a1, a2, a3
}
