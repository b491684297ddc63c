// Package loss implements the objective functions used in the FedGuard
// reproduction: fused softmax cross-entropy for the classifier, binary
// cross-entropy and the Gaussian KL divergence for the CVAE's ELBO
// (Eqn. 5–6 of the paper), and MSE for the Spectral defense's
// autoencoder reconstruction errors.
//
// Every function returns the scalar loss averaged over the batch together
// with (or by filling) the gradient w.r.t. its input, so callers drive
// backpropagation explicitly.
package loss

import (
	"fmt"
	"math"

	"fedguard/internal/nn"
	"fedguard/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy of logits (B, C)
// against integer labels, returning the loss and the gradient w.r.t. the
// logits (already including the softmax Jacobian: grad = (p - onehot)/B).
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	b, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != b {
		panic(fmt.Sprintf("loss: %d labels for batch of %d", len(labels), b))
	}
	grad := tensor.New(b, c)
	probs := make([]float32, c)
	var total float64
	for i := 0; i < b; i++ {
		row := logits.Data[i*c : (i+1)*c]
		nn.SoftmaxRow(probs, row)
		y := labels[i]
		if y < 0 || y >= c {
			panic(fmt.Sprintf("loss: label %d out of range [0,%d)", y, c))
		}
		p := float64(probs[y])
		if p < 1e-12 {
			p = 1e-12
		}
		total -= math.Log(p)
		g := grad.Data[i*c : (i+1)*c]
		for j := range g {
			g[j] = probs[j]
		}
		g[y] -= 1
	}
	invB := float32(1 / float64(b))
	for i := range grad.Data {
		grad.Data[i] *= invB
	}
	return total / float64(b), grad
}

// clampProb keeps a prediction away from 0 and 1 so log and the
// gradient's 1/(p(1-p)) stay finite.
func clampProb(p float32) float64 {
	const eps = 1e-7
	pc := float64(p)
	if pc < eps {
		pc = eps
	} else if pc > 1-eps {
		pc = 1 - eps
	}
	return pc
}

// BinaryCrossEntropyLoss returns the mean (over batch rows) of the
// summed element-wise BCE between predictions p in (0,1) and targets t
// in [0,1]:
//
//	-Σ [t·log p + (1-t)·log(1-p)]
//
// This is the CVAE reconstruction term for pixel data. A target of exactly 0 or 1 — the background of a digit image, every
// one-hot lane — multiplies one of the two logarithms by zero; that
// logarithm is not taken. The other is strictly negative, so adding the
// skipped ±0 product could not have changed it: the value is the same
// bits either way.
func BinaryCrossEntropyLoss(pred, target *tensor.Tensor) float64 {
	if !pred.SameShape(target) {
		panic(fmt.Sprintf("loss: BCE shape mismatch %v vs %v", pred.Shape(), target.Shape()))
	}
	var total float64
	for i, p := range pred.Data {
		pc := clampProb(p)
		switch t := target.Data[i]; t {
		case 0:
			total -= math.Log(1 - pc)
		case 1:
			total -= math.Log(pc)
		default:
			total -= float64(t)*math.Log(pc) + float64(1-t)*math.Log(1-pc)
		}
	}
	return total / float64(pred.Dim(0))
}

// BinaryCrossEntropyGrad fills grad, which must have pred's shape, with
// the gradient of BinaryCrossEntropyLoss w.r.t. pred. A training loop
// needs the gradient every step but the value only now and then, so the
// two are separate calls.
func BinaryCrossEntropyGrad(grad, pred, target *tensor.Tensor) {
	if !pred.SameShape(target) || !pred.SameShape(grad) {
		panic(fmt.Sprintf("loss: BCE shape mismatch %v vs %v, gradient %v", pred.Shape(), target.Shape(), grad.Shape()))
	}
	invB := float32(1 / float64(pred.Dim(0)))
	for i, p := range pred.Data {
		t := target.Data[i]
		pc := clampProb(p)
		grad.Data[i] = float32((pc-float64(t))/(pc*(1-pc))) * invB
	}
}

// MSE computes the mean (over batch rows) of the summed squared error and
// the gradient w.r.t. pred: grad = 2(pred-target)/B.
func MSE(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	if !pred.SameShape(target) {
		panic(fmt.Sprintf("loss: MSE shape mismatch %v vs %v", pred.Shape(), target.Shape()))
	}
	b := pred.Dim(0)
	grad := tensor.New(pred.Shape()...)
	var total float64
	invB := float32(1 / float64(b))
	for i, p := range pred.Data {
		d := float64(p) - float64(target.Data[i])
		total += d * d
		grad.Data[i] = float32(2*d) * invB
	}
	return total / float64(b), grad
}

// GaussianKL computes the KL divergence between the diagonal Gaussian
// N(mu, exp(logvar)) and the standard normal prior, summed over latent
// dimensions and averaged over the batch:
//
//	KL = -1/2 Σ (1 + logvar - mu² - exp(logvar))
//
// It returns the loss and the gradients w.r.t. mu and logvar (already
// scaled by 1/B). This is the CVAE regularization term; like
// BinaryCrossEntropy it is GaussianKLGrad plus GaussianKLLoss.
func GaussianKL(mu, logvar *tensor.Tensor) (float64, *tensor.Tensor, *tensor.Tensor) {
	dMu := tensor.New(mu.Shape()...)
	dLogvar := tensor.New(logvar.Shape()...)
	GaussianKLGrad(dMu, dLogvar, mu, logvar)
	return GaussianKLLoss(mu, logvar), dMu, dLogvar
}

// GaussianKLLoss returns the loss value of GaussianKL.
func GaussianKLLoss(mu, logvar *tensor.Tensor) float64 {
	if !mu.SameShape(logvar) {
		panic(fmt.Sprintf("loss: GaussianKL shape mismatch %v vs %v", mu.Shape(), logvar.Shape()))
	}
	var total float64
	for i := range mu.Data {
		m := float64(mu.Data[i])
		lv := float64(logvar.Data[i])
		total += -0.5 * (1 + lv - m*m - math.Exp(lv))
	}
	return total / float64(mu.Dim(0))
}

// GaussianKLGrad fills dMu and dLogvar, which must have mu's shape, with
// the gradients of GaussianKL.
func GaussianKLGrad(dMu, dLogvar, mu, logvar *tensor.Tensor) {
	if !mu.SameShape(logvar) || !mu.SameShape(dMu) || !mu.SameShape(dLogvar) {
		panic(fmt.Sprintf("loss: GaussianKL shape mismatch %v vs %v, gradients %v and %v",
			mu.Shape(), logvar.Shape(), dMu.Shape(), dLogvar.Shape()))
	}
	invB := float32(1 / float64(mu.Dim(0)))
	for i := range mu.Data {
		dMu.Data[i] = mu.Data[i] * invB
		dLogvar.Data[i] = float32(-0.5*(1-math.Exp(float64(logvar.Data[i])))) * invB
	}
}

// CountCorrect returns how many rows of logits argmax to their label.
// An integer count lets callers score a set in blocks and sum: the total
// is exactly the full-batch count, so block-wise evaluation stays
// bit-identical.
func CountCorrect(logits *tensor.Tensor, labels []int) int {
	b, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != b {
		panic(fmt.Sprintf("loss: %d labels for batch of %d", len(labels), b))
	}
	correct := 0
	for i := 0; i < b; i++ {
		row := logits.Data[i*c : (i+1)*c]
		best := 0
		for j := 1; j < c; j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	return correct
}
