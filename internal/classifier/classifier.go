// Package classifier builds the federated MNIST classifier of the paper
// (Table II) and a reduced variant for CPU-scale experiments, together
// with local-training and evaluation helpers used by federated clients
// and by FedGuard's server-side auditing.
package classifier

import (
	"fmt"

	"fedguard/internal/dataset"
	"fedguard/internal/loss"
	"fedguard/internal/nn"
	"fedguard/internal/opt"
	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// Arch selects a classifier architecture. It is a function so every
// Set can build independent instances while guaranteeing identical
// shapes (and therefore an identical flat parameter layout). It must
// construct its layers in the order it stacks them: that is what makes
// Reset(r) on a built model draw r as Arch(r) does.
type Arch func(r *rng.RNG) *nn.Sequential

// Paper returns the exact architecture of Table II: two conv blocks —
// a ReLU-activated 5×5 convolution (32, then 64 channels) and a 2×2 max
// pool each — a 512-unit ReLU FCL and a 10-unit output FCL.
// 1,662,752 parameters. The softmax is fused into the loss.
func Paper() Arch {
	return func(r *rng.RNG) *nn.Sequential {
		c1 := nn.NewConvBlock(1, 32, 5, r)
		c1.InputGradOff = true // first layer: its input gradient is never consumed
		return nn.NewSequential(
			c1,
			nn.NewConvBlock(32, 64, 5, r),
			nn.NewFlatten(),
			nn.NewLinear(64*4*4, 512, r),
			nn.NewReLU(),
			nn.NewLinear(512, 10, r),
		)
	}
}

// Small returns a reduced variant (8 and 16 conv channels, 64-unit FCL)
// with the same topology. It trains ~50× faster on CPU while preserving
// the attack/defense dynamics; the experiment presets use it by default.
func Small() Arch {
	return func(r *rng.RNG) *nn.Sequential {
		c1 := nn.NewConvBlock(1, 8, 5, r)
		c1.InputGradOff = true // first layer: its input gradient is never consumed
		return nn.NewSequential(
			c1,
			nn.NewConvBlock(8, 16, 5, r),
			nn.NewFlatten(),
			nn.NewLinear(16*4*4, 64, r),
			nn.NewReLU(),
			nn.NewLinear(64, 10, r),
		)
	}
}

// Tiny returns a dense-only model for unit tests that need a trainable
// classifier in milliseconds.
func Tiny() Arch {
	return func(r *rng.RNG) *nn.Sequential {
		return nn.NewSequential(
			nn.NewFlatten(),
			nn.NewLinear(dataset.ImageH*dataset.ImageW, 32, r),
			nn.NewReLU(),
			nn.NewLinear(32, 10, r),
		)
	}
}

// TrainConfig controls local classifier training.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Momentum  float64
}

// DefaultTrainConfig mirrors the paper's client setup: 5 local epochs.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 5, BatchSize: 32, LR: 0.05, Momentum: 0.9}
}

// Train runs local SGD on the examples of ds selected by indices and
// returns the mean loss of the final epoch. The model is updated in
// place. It is Worker.Train on a worker made for the call.
func Train(model *nn.Sequential, ds *dataset.Dataset, indices []int, cfg TrainConfig, r *rng.RNG) float64 {
	return (&Worker{Model: model}).Train(ds, indices, cfg, r)
}

// Train is local SGD on the worker's model: zero velocity at the start,
// every batch gathered into the worker's one buffer.
func (w *Worker) Train(ds *dataset.Dataset, indices []int, cfg TrainConfig, r *rng.RNG) float64 {
	model := w.Model
	if w.sgd == nil {
		w.sgd = opt.NewSGD(model.Params(), cfg.LR, cfg.Momentum)
	} else {
		w.sgd.Reset(cfg.LR, cfg.Momentum)
	}
	var epochLoss float64
	for e := 0; e < cfg.Epochs; e++ {
		epochLoss = 0
		batches := dataset.Batches(indices, cfg.BatchSize, r)
		for _, b := range batches {
			w.x, w.labels = ds.BatchInto(w.x, w.labels, b)
			model.ZeroGrad()
			logits := model.Forward(w.x, true)
			l, grad := loss.SoftmaxCrossEntropy(logits, w.labels)
			model.Backward(grad)
			w.sgd.Step()
			epochLoss += l * float64(len(b))
		}
		epochLoss /= float64(len(indices))
	}
	return epochLoss
}

// evalBatch is Evaluate's batch size: the training batch size. An
// evaluation forward goes image by image through the conv blocks, so
// what grows with the batch is the pooled activations and the dense
// layers' scratch (≈ 0.2 MB for the small classifier at 32), which the
// long-lived workers that evaluate have already grown larger by
// training; rows are independent, so a larger batch would be no faster.
const evalBatch = 32

// Evaluate returns the model's accuracy on the examples of ds selected by
// indices, running inference in batches to bound memory.
func Evaluate(model *nn.Sequential, ds *dataset.Dataset, indices []int) float64 {
	if len(indices) == 0 {
		return 0
	}
	w := Worker{Model: model}
	return float64(w.countCorrect(ds, indices)) / float64(len(indices))
}

// CountCorrectTensor returns the number of argmax-correct predictions on
// an explicit tensor batch. FedGuard's audit scores the synthetic set a
// slab of rows at a time, in whatever order the rows became ready, and
// sums the integer counts; the forward pass is per-sample (rows are
// independent), so the sum equals the count on the whole set exactly.
func CountCorrectTensor(model *nn.Sequential, x *tensor.Tensor, labels []int) int {
	logits := model.Forward(x, false)
	return loss.CountCorrect(logits, labels)
}

// ByName resolves an architecture by its registry name ("paper", "small",
// "tiny"). The networked federation ships architectures by name, so both
// endpoints must agree on this registry.
func ByName(name string) (Arch, error) {
	switch name {
	case "paper":
		return Paper(), nil
	case "small":
		return Small(), nil
	case "tiny":
		return Tiny(), nil
	default:
		return nil, fmt.Errorf("classifier: unknown architecture %q", name)
	}
}
