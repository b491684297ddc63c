//go:build !amd64 || purego

package tensor

// Non-amd64 builds (or -tags purego) use the scalar kernels everywhere.
const useAVX = false

func matmulRowsAVX(dst, a, b []float32, lo, hi, arow, ap, k, n int, acc bool) {
	panic("tensor: matmulRowsAVX called without AVX support")
}

func convProductAVX(dst, img, wT []float32, c, h, w, kh, kw, outC int) bool { return false }
