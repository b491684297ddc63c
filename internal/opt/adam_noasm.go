//go:build !amd64 || purego

package opt

// Non-amd64 builds (or -tags purego) run the Go loop over every parameter.
const useAVX = false

func adamStepAVX(val, grad, m, v *float32, n int, b1, omb1, b2, omb2 float32, lr, eps float64) {
	panic("opt: adamStepAVX called without AVX support")
}
