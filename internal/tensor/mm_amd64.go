//go:build amd64 && !purego

package tensor

import "math"

// hasAVX reports whether the CPU and OS support AVX (CPUID feature bits
// plus XGETBV confirmation that the OS preserves YMM state).
func hasAVX() bool

// hasAVX512 reports whether the CPU and OS support AVX512F (CPUID leaf 7
// plus XGETBV confirmation that the OS preserves the opmask and full
// ZMM state).
func hasAVX512() bool

// mmRowAVX computes one output row of an a@b-shaped product with 8-wide
// AVX lanes over the columns:
//
//	dst[j] (+)= Σ_p a[p*astride] * b[p*n+j]   for j in [0, j8)
//
// for p in [0, k) ascending. Each column j owns one vector lane, so its
// sum is formed in ascending-p order from +0 and written (acc=0) or
// added to dst once (acc=1) — exactly the summation-order contract the
// scalar kernels follow, making the vector and scalar paths
// bit-identical (VMULPS/VADDPS round per operation like MULSS/ADDSS; no
// FMA). Zero a-elements are skipped (exact, see the contract). j8 must
// be a multiple of 8 and ≤ n; the caller handles columns [j8, n).
//
//go:noescape
func mmRowAVX(dst, a, b *float32, astride, k, n, j8, acc int)

// mmTiles4x16AVX computes `tiles` consecutive 4-row × 16-column tiles of
// an a@b-shaped product:
//
//	dst[r*n+j] (+)= Σ_p a[r*arow+p*ap] * b[p*n+j]   r in [0, 4·tiles), j in [0, 16)
//
// Same per-lane contract as mmRowAVX (ascending p from +0, separate
// multiply and add), but four rows share each b vector and eight
// accumulators are in flight, and zero a-elements are multiplied rather
// than skipped.
//
//go:noescape
func mmTiles4x16AVX(dst, a, b *float32, arow, ap, k, n, tiles, acc int)

// mmTiles4x32AVX512 is the 4-row × 32-column shape of mmTiles4x16AVX on
// 512-bit registers: r in [0, 4·tiles), j in [0, 32), the same per-lane
// contract and so the same bits. Requires AVX512F.
//
//go:noescape
func mmTiles4x32AVX512(dst, a, b *float32, arow, ap, k, n, tiles, acc int)

// mmTiles8x8AVX is the 8-row × 8-column shape of mmTiles4x16AVX:
// r in [0, 8·tiles), j in [0, 8).
//
//go:noescape
func mmTiles8x8AVX(dst, a, b *float32, arow, ap, k, n, tiles, acc int)

// convTiles4x16AVX is mmTiles4x16AVX reading its left operand out of an
// image: `tiles` consecutive 4-position × 16-channel tiles of one output
// row of a stride-1 convolution product,
//
//	dst[r*n+j] = Σ_(ci,ky,kx) img[ci*cstride + ky*rstride + r + kx] * w[p*n+j]   r in [0, 4·tiles), j in [0, 16)
//
// with p = (ci*kh+ky)*kw+kx ascending over ci in [0, c), ky in [0, kh),
// kx in [0, kw). Row r of the im2col matrix is the image shifted by r,
// so the four rows of a tile are four consecutive floats at the cursor.
// Same per-lane contract as the matmul tiles: ascending p from +0,
// separate multiply and add, zeros multiplied through.
//
//go:noescape
func convTiles4x16AVX(dst, img, w *float32, c, kh, kw, cstride, rstride, n, tiles int)

// convTiles8x8AVX is the 8-position × 8-channel shape of
// convTiles4x16AVX: r in [0, 8·tiles), j in [0, 8).
//
//go:noescape
func convTiles8x8AVX(dst, img, w *float32, c, kh, kw, cstride, rstride, n, tiles int)

// convProductAVX computes ConvProduct on the tile kernels and reports
// whether it did: it needs AVX, whole 8-channel blocks and output rows
// that are whole tiles (4 positions under a 16-channel block, 8 under
// the remaining 8-channel one). Each channel block runs over every
// output row before the next so its strip of wT stays in cache.
func convProductAVX(dst, img, wT []float32, c, h, w, kh, kw, outC int) bool {
	outH, outW := h-kh+1, w-kw+1
	if !useAVX || outC%8 != 0 || outW%4 != 0 || (outC%16 != 0 && outW%8 != 0) {
		return false
	}
	j := 0
	for ; j+16 <= outC; j += 16 {
		for oy := 0; oy < outH; oy++ {
			convTiles4x16AVX(&dst[oy*outW*outC+j], &img[oy*w], &wT[j], c, kh, kw, h*w, w, outC, outW/4)
		}
	}
	if j < outC {
		for oy := 0; oy < outH; oy++ {
			convTiles8x8AVX(&dst[oy*outW*outC+j], &img[oy*w], &wT[j], c, kh, kw, h*w, w, outC, outW/8)
		}
	}
	return true
}

// useAVX gates the vector kernels and useAVX512, which implies it, the
// 32-column tile; both resolved once at startup. The kernel tests toggle
// useAVX512 to hold the two tile widths to the same bits.
var (
	useAVX    = hasAVX()
	useAVX512 = useAVX && hasAVX512()
)

// wideN is the column count from which a mostly-zero left operand is
// better served by the row kernel than by the YMM tiles: its 32-column
// blocks amortise one load-test-broadcast of an a-element over four
// accumulators and skip the whole rank-1 update when the element is
// zero, which the tiles cannot. The ZMM tile outruns the row kernel at
// every density, so the switch is off wherever useAVX512 is set.
// MAC/ns on one core of the benchmark host (Xeon, AVX-512), row / YMM
// tiles / ZMM tile, for (32×256)@(256×794) with uniformly scattered
// zeros: 10 / 21 / 26 dense, 15–17 / 23–27 / 39 at 50 %, 15–21 / 18–27
// / 32–36 at 70 %, 23–26 / 18–28 / 26–39 at 87.5 % (the density behind
// ReLU and a 2×2 pool), 21–28 / 22–28 / 32–38 at 97 %. With the switch
// kept on the ZMM build, ConvBackward/small-8to16-b32 reads 1.2 ms
// against 0.74 ms without it, and a classifier train epoch 36 against
// 28 ms.
const wideN = 32

// zeroProbe is the number of rows, and of inner indices, zeroHeavy
// samples: at most 256 loads against a product of at least 32 columns.
const zeroProbe = 16

// zeroHeavy estimates, from an evenly spaced zeroProbe×zeroProbe lattice
// over rows [lo,hi) of the left operand, whether at least three quarters
// of its elements are zero. Either answer gives the same bits; a wrong
// one only costs time.
func zeroHeavy(a []float32, lo, hi, arow, ap, k int) bool {
	si := (hi - lo + zeroProbe - 1) / zeroProbe * arow
	sp := (k + zeroProbe - 1) / zeroProbe * ap
	var zeros, seen uint64
	for i := lo * arow; i < hi*arow; i += si {
		for j := i; j < i+k*ap; j += sp {
			// ±0 is the bit pattern that is 0 once the sign is shifted
			// out; counted without a branch, which would mispredict on
			// every other element of a half-zero operand.
			zeros += (uint64(math.Float32bits(a[j])<<1) - 1) >> 63
			seen++
		}
	}
	return 4*zeros >= 3*seen
}

// matmulRowsAVX computes rows [lo,hi) of an a@b-shaped product whose
// left operand is addressed a[i*arow+p*ap] (arow=k, ap=1 for a@b;
// arow=1, ap=m for aᵀ@b), n ≥ 8, k ≥ 1. The 32-column blocks run in
// 4-row ZMM tiles where the CPU has AVX-512, the remaining 16-column
// blocks in 4-row YMM tiles and a remaining 8-column block in 8-row
// tiles, each block over all its row tiles before the next so its strip
// of b stays in cache; the row kernel finishes the rows that do not fill
// a tile and, without AVX-512, runs every row when the product is wide
// and zeroHeavy says most of its rank-1 updates can be skipped. Columns
// past the last multiple of 8 are scalar.
func matmulRowsAVX(dst, a, b []float32, lo, hi, arow, ap, k, n int, acc bool) {
	j8 := n &^ 7
	accFlag := 0
	if acc {
		accFlag = 1
	}
	t4, t8 := (hi-lo)/4, (hi-lo)/8
	if t4 > 0 && !useAVX512 && j8 >= wideN && zeroHeavy(a, lo, hi, arow, ap, k) {
		t4 = 0
	}
	if t4 > 0 {
		j := 0
		if useAVX512 {
			for ; j+32 <= j8; j += 32 {
				mmTiles4x32AVX512(&dst[lo*n+j], &a[lo*arow], &b[j], arow, ap, k, n, t4, accFlag)
			}
		}
		for ; j+16 <= j8; j += 16 {
			mmTiles4x16AVX(&dst[lo*n+j], &a[lo*arow], &b[j], arow, ap, k, n, t4, accFlag)
		}
		if j < j8 {
			if t8 > 0 {
				mmTiles8x8AVX(&dst[lo*n+j], &a[lo*arow], &b[j], arow, ap, k, n, t8, accFlag)
			}
			for i := lo + 8*t8; i < lo+4*t4; i++ {
				mmRowAVX(&dst[i*n+j], &a[i*arow], &b[j], ap, k, n, 8, accFlag)
			}
		}
	}
	for i := lo + 4*t4; i < hi; i++ {
		mmRowAVX(&dst[i*n], &a[i*arow], &b[0], ap, k, n, j8, accFlag)
	}
	if j8 == n {
		return
	}
	// Columns past the last multiple of 8 (one for conv1's 25-wide
	// filter gradient, two for the 10-class output layer): four rows at
	// a time so four independent sums are in flight, then row by row.
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0, a1, a2, a3 := a[(i+0)*arow:], a[(i+1)*arow:], a[(i+2)*arow:], a[(i+3)*arow:]
		for j := j8; j < n; j++ {
			var c0, c1, c2, c3 float32
			for p := 0; p < k; p++ {
				bv := b[p*n+j]
				c0 += a0[p*ap] * bv
				c1 += a1[p*ap] * bv
				c2 += a2[p*ap] * bv
				c3 += a3[p*ap] * bv
			}
			if acc {
				dst[(i+0)*n+j] += c0
				dst[(i+1)*n+j] += c1
				dst[(i+2)*n+j] += c2
				dst[(i+3)*n+j] += c3
			} else {
				dst[(i+0)*n+j], dst[(i+1)*n+j], dst[(i+2)*n+j], dst[(i+3)*n+j] = c0, c1, c2, c3
			}
		}
	}
	for ; i < hi; i++ {
		ai := a[i*arow:]
		for j := j8; j < n; j++ {
			var c float32
			for p := 0; p < k; p++ {
				c += ai[p*ap] * b[p*n+j]
			}
			if acc {
				dst[i*n+j] += c
			} else {
				dst[i*n+j] = c
			}
		}
	}
}
