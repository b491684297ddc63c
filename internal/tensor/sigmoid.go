package tensor

import "math"

// Sigmoid writes the logistic function of src into dst, element by
// element: dst[i] = float32(1/(1+math.Exp(-float64(src[i])))), bit for
// bit, whichever kernel runs. Where the CPU has the vector kernel
// (sigmoid_amd64.go) it computes whole groups of lanes and leaves the
// rest — a short tail, and any group with a lane the vector form does
// not cover — to the scalar formula. dst must be at least as long as
// src.
func Sigmoid(dst, src []float32) {
	dst = dst[:len(src)]
	i := sigmoidVec(dst, src)
	sigmoidScalar(dst[i:], src[i:])
}

// sigmoidScalar is Sigmoid's defining formula, one element at a time.
func sigmoidScalar(dst, src []float32) {
	for i, v := range src {
		dst[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
}
