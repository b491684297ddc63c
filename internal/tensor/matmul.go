package tensor

import "fmt"

// parallelThreshold is the number of multiply-accumulate operations below
// which the matmul kernels run on the calling goroutine. Splitting a
// product hands half of it to a pool worker that is usually parked:
// measured on the 2-core benchmark host, a parked worker picks a chunk
// up after 5 µs (median) to 18 µs (p90), against 0.6 µs when it is
// already spinning, so the split only pays when half the product costs
// more than that. Half of 1 M MACs is 19 µs on the YMM tiles (27 MAC/ns)
// and 12 µs on the ZMM tile (43 MAC/ns), both above the median pickup,
// so the wider tile does not move the split point. The conv layers go
// image by image in both directions (115–205 K MACs a product, 3–10 µs
// for the small classifier), and its dense products at a batch of 32
// are ≤ 0.5 M MACs, so a small-classifier train step runs on the calling
// goroutine; what splits are the CVAE's products (≥ 6.5 M MACs at a
// batch of 32) and the paper classifier's dense layers. The previous
// value, 1<<16, dispatched 2 µs of work.
const parallelThreshold = 1 << 20

// Summation-order contract: every kernel in this file computes each
// output element as a single float32 accumulator updated in ascending
// inner-index (p) order, starting from +0. Register tiling and row
// partitioning change *which* elements are computed together, never the
// per-element order of additions, so serial, parallel, and blocked
// execution produce bit-identical results — the property the FedGuard
// determinism contract (same seed → same FinalWeights) rests on.
//
// Zero operands are part of the same contract: a zero operand
// contributes ±0, and an accumulator that starts at +0 and only ever
// adds values can never become -0 under round-to-nearest, so
// x + (±0) == x bitwise. Skipping the term (the scalar kernels and the
// AVX row kernel, which test the left operand) and multiplying it out
// (the register-tiled AVX kernels, which have no branch in the inner
// loop) therefore give the same bits. Which rows of a product fall
// into a tile and which into the row-kernel tail depends on the row
// partition, and whether a product of 32 or more columns runs on the
// tiles or, its left operand being mostly zeros, on the row kernel
// depends on a sample of that operand (zeroHeavy, mm_amd64.go);
// neither can show in the result. This holds for finite data
// only: 0·Inf is NaN where the skip leaves the sum alone, so with
// non-finite operands the paths, and hence different worker counts, may
// disagree. The training pipeline never feeds non-finite values.

// HasVectorKernels reports whether the a@b-shaped kernels run on the
// SIMD path (AVX on amd64). The vector kernels cover the a@b and aᵀ@b
// forms but not the dot-product-shaped a@bᵀ, so layers use this to
// decide whether to turn their MatMulT into the vector-friendly MatMul
// by transposing the smaller operand into scratch: nn.Linear its batch
// (x@Wᵀ = (W@xᵀ)ᵀ, the same ascending-p sums).
func HasVectorKernels() bool { return useAVX }

// MatMul computes dst = a @ b for 2-D tensors, where a is (m,k) and b is
// (k,n). dst must be (m,n) and must not alias a or b. Large products are
// split row-wise across the persistent kernel pool (see pool.go).
func MatMul(dst, a, b *Tensor) {
	matmulDispatch(dst, a, b, false)
}

// MatMulAcc computes dst += a @ b with the same shapes as MatMul. Each
// output element's k-term sum is formed in a register in ascending-p
// order and added to dst once, so the result is bit-identical to
// computing a@b separately and adding it. It is the per-image filter
// gradient primitive (dW += gradᵢ @ colsᵢ).
func MatMulAcc(dst, a, b *Tensor) {
	matmulDispatch(dst, a, b, true)
}

func matmulDispatch(dst, a, b *Tensor, acc bool) {
	op := "MatMul"
	if acc {
		op = "MatMulAcc"
	}
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic("tensor: " + op + " requires rank-2 tensors")
	}
	m, k := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch: (%d,%d)@(%d,%d)", op, m, k, k2, n))
	}
	if dst.Dim(0) != m || dst.Dim(1) != n {
		panic(fmt.Sprintf("tensor: %s dst shape %v, want (%d,%d)", op, dst.shape, m, n))
	}
	if m*n*k < parallelThreshold {
		matmulRows(dst.Data, a.Data, b.Data, 0, m, k, n, acc)
		return
	}
	parallelRows(m, matmulKernel, kernelArgs{dst: dst.Data, a: a.Data, b: b.Data, k: k, n: n, acc: acc})
}

func matmulKernel(g kernelArgs, lo, hi int) { matmulRows(g.dst, g.a, g.b, lo, hi, g.k, g.n, g.acc) }

// matmulRows computes rows [lo,hi) of dst = a @ b. With AVX and at least
// 8 columns it is matmulRowsAVX (mm_amd64.go); otherwise a scalar
// register-tiled 4×4 micro-kernel: four rows of a against four columns
// of b accumulate into sixteen registers while the shared operands stay
// in registers, with the unrolled inner loop streaming b row-by-row
// (cache-friendly for row-major b). When acc is true each register sum
// is added to dst instead of stored.
func matmulRows(dst, a, b []float32, lo, hi, k, n int, acc bool) {
	if useAVX && n >= 8 && k > 0 && hi > lo {
		matmulRowsAVX(dst, a, b, lo, hi, k, 1, k, n, acc)
		return
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k]
		d0 := dst[(i+0)*n : (i+0)*n+n]
		d1 := dst[(i+1)*n : (i+1)*n+n]
		d2 := dst[(i+2)*n : (i+2)*n+n]
		d3 := dst[(i+3)*n : (i+3)*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c00, c01, c02, c03 float32
			var c10, c11, c12, c13 float32
			var c20, c21, c22, c23 float32
			var c30, c31, c32, c33 float32
			for p := 0; p < k; p++ {
				bp := b[p*n+j : p*n+j+4]
				b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
				// Zero-skip: gradients arriving through pool/ReLU backward
				// are mostly zeros, and a zero a-element contributes ±0 —
				// which cannot change a +0-started accumulator — so the
				// skip is bit-exact for finite data and skips 4 FMAs.
				if av := a0[p]; av != 0 {
					c00 += av * b0
					c01 += av * b1
					c02 += av * b2
					c03 += av * b3
				}
				if av := a1[p]; av != 0 {
					c10 += av * b0
					c11 += av * b1
					c12 += av * b2
					c13 += av * b3
				}
				if av := a2[p]; av != 0 {
					c20 += av * b0
					c21 += av * b1
					c22 += av * b2
					c23 += av * b3
				}
				if av := a3[p]; av != 0 {
					c30 += av * b0
					c31 += av * b1
					c32 += av * b2
					c33 += av * b3
				}
			}
			if acc {
				d0[j] += c00
				d0[j+1] += c01
				d0[j+2] += c02
				d0[j+3] += c03
				d1[j] += c10
				d1[j+1] += c11
				d1[j+2] += c12
				d1[j+3] += c13
				d2[j] += c20
				d2[j+1] += c21
				d2[j+2] += c22
				d2[j+3] += c23
				d3[j] += c30
				d3[j+1] += c31
				d3[j+2] += c32
				d3[j+3] += c33
			} else {
				d0[j], d0[j+1], d0[j+2], d0[j+3] = c00, c01, c02, c03
				d1[j], d1[j+1], d1[j+2], d1[j+3] = c10, c11, c12, c13
				d2[j], d2[j+1], d2[j+2], d2[j+3] = c20, c21, c22, c23
				d3[j], d3[j+1], d3[j+2], d3[j+3] = c30, c31, c32, c33
			}
		}
		for ; j < n; j++ {
			var c0, c1, c2, c3 float32
			for p := 0; p < k; p++ {
				bv := b[p*n+j]
				c0 += a0[p] * bv
				c1 += a1[p] * bv
				c2 += a2[p] * bv
				c3 += a3[p] * bv
			}
			if acc {
				d0[j] += c0
				d1[j] += c1
				d2[j] += c2
				d3[j] += c3
			} else {
				d0[j], d1[j], d2[j], d3[j] = c0, c1, c2, c3
			}
		}
	}
	for ; i < hi; i++ {
		ai := a[i*k : i*k+k]
		di := dst[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c0, c1, c2, c3 float32
			for p, av := range ai {
				if av == 0 {
					continue
				}
				bp := b[p*n+j : p*n+j+4]
				c0 += av * bp[0]
				c1 += av * bp[1]
				c2 += av * bp[2]
				c3 += av * bp[3]
			}
			if acc {
				di[j] += c0
				di[j+1] += c1
				di[j+2] += c2
				di[j+3] += c3
			} else {
				di[j], di[j+1], di[j+2], di[j+3] = c0, c1, c2, c3
			}
		}
		for ; j < n; j++ {
			var c float32
			for p, av := range ai {
				if av == 0 {
					continue
				}
				c += av * b[p*n+j]
			}
			if acc {
				di[j] += c
			} else {
				di[j] = c
			}
		}
	}
}

// MatMulT computes dst = a @ bᵀ, where a is (m,k) and b is (n,k). This is
// the forward primitive for linear layers (and the batched conv lowering)
// and avoids materializing the transpose.
func MatMulT(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic("tensor: MatMulT requires rank-2 tensors")
	}
	m, k := a.Dim(0), a.Dim(1)
	n, k2 := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT inner dimension mismatch: (%d,%d)@(%d,%d)T", m, k, n, k2))
	}
	if dst.Dim(0) != m || dst.Dim(1) != n {
		panic(fmt.Sprintf("tensor: MatMulT dst shape %v, want (%d,%d)", dst.shape, m, n))
	}
	if m*n*k < parallelThreshold {
		matmulTRows(dst.Data, a.Data, b.Data, 0, m, k, n)
		return
	}
	parallelRows(m, matmulTKernel, kernelArgs{dst: dst.Data, a: a.Data, b: b.Data, k: k, n: n})
}

func matmulTKernel(g kernelArgs, lo, hi int) { matmulTRows(g.dst, g.a, g.b, lo, hi, g.k, g.n) }

// matmulTRows computes rows [lo,hi) of dst = a @ bᵀ with a 4×4 tile of
// simultaneous dot products: both operands stream sequentially, and each
// pass over p fills sixteen accumulators.
func matmulTRows(dst, a, b []float32, lo, hi, k, n int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k]
		d0 := dst[(i+0)*n : (i+0)*n+n]
		d1 := dst[(i+1)*n : (i+1)*n+n]
		d2 := dst[(i+2)*n : (i+2)*n+n]
		d3 := dst[(i+3)*n : (i+3)*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+0)*k+k]
			b1 := b[(j+1)*k : (j+1)*k+k]
			b2 := b[(j+2)*k : (j+2)*k+k]
			b3 := b[(j+3)*k : (j+3)*k+k]
			var c00, c01, c02, c03 float32
			var c10, c11, c12, c13 float32
			var c20, c21, c22, c23 float32
			var c30, c31, c32, c33 float32
			// No zero-skip here: forward activations are only ~50% sparse
			// with an unpredictable pattern, and the mispredicted branches
			// cost more than the skipped FMAs (measured; unlike the
			// backward gradient matrices, which are >85% zeros).
			for p := 0; p < k; p++ {
				bv0, bv1, bv2, bv3 := b0[p], b1[p], b2[p], b3[p]
				av := a0[p]
				c00 += av * bv0
				c01 += av * bv1
				c02 += av * bv2
				c03 += av * bv3
				av = a1[p]
				c10 += av * bv0
				c11 += av * bv1
				c12 += av * bv2
				c13 += av * bv3
				av = a2[p]
				c20 += av * bv0
				c21 += av * bv1
				c22 += av * bv2
				c23 += av * bv3
				av = a3[p]
				c30 += av * bv0
				c31 += av * bv1
				c32 += av * bv2
				c33 += av * bv3
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = c00, c01, c02, c03
			d1[j], d1[j+1], d1[j+2], d1[j+3] = c10, c11, c12, c13
			d2[j], d2[j+1], d2[j+2], d2[j+3] = c20, c21, c22, c23
			d3[j], d3[j+1], d3[j+2], d3[j+3] = c30, c31, c32, c33
		}
		for ; j < n; j++ {
			bj := b[j*k : j*k+k]
			var c0, c1, c2, c3 float32
			for p, bv := range bj {
				c0 += a0[p] * bv
				c1 += a1[p] * bv
				c2 += a2[p] * bv
				c3 += a3[p] * bv
			}
			d0[j], d1[j], d2[j], d3[j] = c0, c1, c2, c3
		}
	}
	for ; i < hi; i++ {
		ai := a[i*k : i*k+k]
		di := dst[i*n : i*n+n]
		for j := 0; j < n; j++ {
			bj := b[j*k : j*k+k]
			var acc float32
			for p := range ai {
				acc += ai[p] * bj[p]
			}
			di[j] = acc
		}
	}
}

// MatMulTA computes dst = aᵀ @ b, where a is (k,m) and b is (k,n). This is
// the weight-gradient primitive: dW = xᵀ @ dy.
func MatMulTA(dst, a, b *Tensor) {
	matmulTADispatch(dst, a, b, false)
}

// MatMulTAAcc computes dst += aᵀ @ b with the same shapes as MatMulTA.
// It is the in-place gradient accumulator (dW += xᵀ @ dy) and replaces
// the scratch-tensor-plus-AXPY pattern: each output element's k-term sum
// is formed in a register in ascending-p order and added to dst once,
// which is bit-identical to computing aᵀ@b separately and adding it.
func MatMulTAAcc(dst, a, b *Tensor) {
	matmulTADispatch(dst, a, b, true)
}

func matmulTADispatch(dst, a, b *Tensor, acc bool) {
	op := "MatMulTA"
	if acc {
		op = "MatMulTAAcc"
	}
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic("tensor: " + op + " requires rank-2 tensors")
	}
	k, m := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch: (%d,%d)T@(%d,%d)", op, k, m, k2, n))
	}
	if dst.Dim(0) != m || dst.Dim(1) != n {
		panic(fmt.Sprintf("tensor: %s dst shape %v, want (%d,%d)", op, dst.shape, m, n))
	}
	if m*n*k < parallelThreshold {
		matmulTARows(dst.Data, a.Data, b.Data, 0, m, k, n, m, acc)
		return
	}
	parallelRows(m, matmulTAKernel, kernelArgs{dst: dst.Data, a: a.Data, b: b.Data, k: k, n: n, m: m, acc: acc})
}

func matmulTAKernel(g kernelArgs, lo, hi int) {
	matmulTARows(g.dst, g.a, g.b, lo, hi, g.k, g.n, g.m, g.acc)
}

// matmulTARows computes rows [lo,hi) of aᵀ @ b (dst[i][j] = Σ_p
// a[p*m+i]·b[p*n+j]), through matmulRowsAVX where that applies and
// otherwise with a scalar 4×4 register tile; when acc is true the tile
// is added to dst instead of stored. Row-parallel over i: each goroutine
// writes only its own dst rows — race-free.
func matmulTARows(dst, a, b []float32, lo, hi, k, n, m int, acc bool) {
	if useAVX && n >= 8 && k > 0 && hi > lo {
		matmulRowsAVX(dst, a, b, lo, hi, 1, m, k, n, acc)
		return
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		d0 := dst[(i+0)*n : (i+0)*n+n]
		d1 := dst[(i+1)*n : (i+1)*n+n]
		d2 := dst[(i+2)*n : (i+2)*n+n]
		d3 := dst[(i+3)*n : (i+3)*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c00, c01, c02, c03 float32
			var c10, c11, c12, c13 float32
			var c20, c21, c22, c23 float32
			var c30, c31, c32, c33 float32
			for p := 0; p < k; p++ {
				ap := a[p*m+i : p*m+i+4]
				bp := b[p*n+j : p*n+j+4]
				b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
				// Zero-skip on the gradient operand (see matmulRows):
				// bit-exact for finite data, and dW accumulation feeds on
				// the sparsest matrices in the whole backward pass.
				if av := ap[0]; av != 0 {
					c00 += av * b0
					c01 += av * b1
					c02 += av * b2
					c03 += av * b3
				}
				if av := ap[1]; av != 0 {
					c10 += av * b0
					c11 += av * b1
					c12 += av * b2
					c13 += av * b3
				}
				if av := ap[2]; av != 0 {
					c20 += av * b0
					c21 += av * b1
					c22 += av * b2
					c23 += av * b3
				}
				if av := ap[3]; av != 0 {
					c30 += av * b0
					c31 += av * b1
					c32 += av * b2
					c33 += av * b3
				}
			}
			if acc {
				d0[j] += c00
				d0[j+1] += c01
				d0[j+2] += c02
				d0[j+3] += c03
				d1[j] += c10
				d1[j+1] += c11
				d1[j+2] += c12
				d1[j+3] += c13
				d2[j] += c20
				d2[j+1] += c21
				d2[j+2] += c22
				d2[j+3] += c23
				d3[j] += c30
				d3[j+1] += c31
				d3[j+2] += c32
				d3[j+3] += c33
			} else {
				d0[j], d0[j+1], d0[j+2], d0[j+3] = c00, c01, c02, c03
				d1[j], d1[j+1], d1[j+2], d1[j+3] = c10, c11, c12, c13
				d2[j], d2[j+1], d2[j+2], d2[j+3] = c20, c21, c22, c23
				d3[j], d3[j+1], d3[j+2], d3[j+3] = c30, c31, c32, c33
			}
		}
		for ; j < n; j++ {
			var c0, c1, c2, c3 float32
			for p := 0; p < k; p++ {
				bv := b[p*n+j]
				if bv == 0 {
					continue
				}
				ap := a[p*m+i : p*m+i+4]
				c0 += ap[0] * bv
				c1 += ap[1] * bv
				c2 += ap[2] * bv
				c3 += ap[3] * bv
			}
			if acc {
				d0[j] += c0
				d1[j] += c1
				d2[j] += c2
				d3[j] += c3
			} else {
				d0[j], d1[j], d2[j], d3[j] = c0, c1, c2, c3
			}
		}
	}
	for ; i < hi; i++ {
		di := dst[i*n : i*n+n]
		for j := 0; j < n; j++ {
			var c float32
			for p := 0; p < k; p++ {
				if av := a[p*m+i]; av != 0 {
					c += av * b[p*n+j]
				}
			}
			if acc {
				di[j] += c
			} else {
				di[j] = c
			}
		}
	}
}
