//go:build !amd64 || purego

package tensor

// useAVX512 stands in for the assembly build's switch, which the kernel
// tests toggle; the scalar kernels never read it.
var useAVX512 = false
