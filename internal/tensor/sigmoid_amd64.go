//go:build amd64 && !purego

package tensor

// hasAVX2FMA reports whether the CPU has FMA3 and AVX2 (CPUID feature
// bits; the OS's YMM support is hasAVX's to confirm).
func hasAVX2FMA() bool

// sigmoidAVX computes Sigmoid over the whole 4-lane groups of src, from
// the start, and returns how many elements it wrote: it stops before the
// first group holding a lane with |v| > 700 or a NaN, and after the last
// whole group. dst must be at least as long as src.
//
// A lane is math.Exp's FMA path (archExp in $GOROOT/src/math/
// exp_amd64.s, which Go takes on every CPU with AVX and FMA) ported to
// four float64 lanes — the same constants and the same operations in the
// same order, each rounding as its scalar form does — followed by the
// add, the divide and the narrowing to float32 the scalar formula
// compiles to, so every lane it writes has the scalar formula's bits.
// For |v| ≤ 700 the scalar routine reaches none of its special branches
// (non-finite input, overflow, a subnormal or infinite scale); the lanes
// that would are the ones it leaves to the scalar formula.
//
//go:noescape
func sigmoidAVX(dst, src []float32) int

// sigmoidAVX512 is sigmoidAVX on eight lanes of 512-bit registers, for
// whole 8-lane groups: the same per-lane operations and so the same
// bits. Requires AVX512F.
//
//go:noescape
func sigmoidAVX512(dst, src []float32) int

// useFMA gates the sigmoid kernels: AVX, AVX2 and FMA, resolved once at
// startup. The 8-lane kernel runs where useAVX512 is also set.
var useFMA = useAVX && hasAVX2FMA()

// sigmoidVec runs the vector kernels over src and returns how many
// leading elements it wrote; fewer than four are left. A group the
// kernels stop at goes through the scalar formula here, and the kernels
// resume after it.
func sigmoidVec(dst, src []float32) int {
	if !useFMA {
		return 0
	}
	i := 0
	for {
		if useAVX512 {
			i += sigmoidAVX512(dst[i:], src[i:])
		}
		i += sigmoidAVX(dst[i:], src[i:])
		if len(src)-i < 4 {
			return i
		}
		// The four lanes at i hold one the kernels leave to the formula.
		sigmoidScalar(dst[i:i+4], src[i:i+4])
		i += 4
	}
}
