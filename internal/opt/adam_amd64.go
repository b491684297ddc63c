//go:build amd64 && !purego

package opt

import "fedguard/internal/tensor"

// useAVX gates the Adam kernel on the same CPUID/XGETBV probe as the
// tensor kernels.
var useAVX = tensor.HasVectorKernels()

// adamStepAVX is adamStep's loop body over n parameters, n a positive
// multiple of 4, bit-identical to the Go loop (see adam_amd64.s).
//
//go:noescape
func adamStepAVX(val, grad, m, v *float32, n int, b1, omb1, b2, omb2 float32, lr, eps float64)
