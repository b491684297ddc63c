package classifier

import (
	"math"
	"slices"
	"testing"

	"fedguard/internal/dataset"
	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// TestEvalLogitsEqualTrainLogits holds the evaluation forward — conv
// blocks taken image by image, nothing retained — to the bits
// of the training forward, logit for logit, for every architecture at
// the batch sizes the system evaluates in (a single row, the audit's
// slabs, the training batch, the whole synthetic set). The images' blank
// margins give every pool window there four equal inputs; in the second
// pass one first-layer channel is dead (bias −1e6: its pooled plane is
// all +0) and one saturated (bias +Inf). Scores, thresholds and decision
// records are integers and comparisons over these logits, so equal bits
// here is what keeps every run's bytes where they were.
func TestEvalLogitsEqualTrainLogits(t *testing.T) {
	r := rng.New(0xe7a3)
	ds := dataset.Generate(100, dataset.DefaultGenOptions(), r)
	for _, name := range []string{"small", "paper", "tiny"} {
		arch, _ := ByName(name)
		model := arch(r)
		for _, poke := range []bool{false, true} {
			if poke {
				bias := model.Params()[1].Value.Data
				bias[0], bias[1] = -1e6, float32(math.Inf(1))
			}
			for _, b := range []int{1, 7, 25, 32, 100} {
				x, _ := ds.Batch(dataset.Range(ds.Len())[100-b:])
				want := model.Forward(x, true)
				want = tensor.FromSlice(slices.Clone(want.Data), want.Shape()...)
				got := model.Forward(x, false)
				for i, w := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(w) {
						t.Fatalf("%s (poked %v) batch %d: logit [%d][%d] = %v (bits %#x), training forward gives %v (bits %#x)",
							name, poke, b, i/10, i%10, got.Data[i], math.Float32bits(got.Data[i]), w, math.Float32bits(w))
					}
				}
			}
		}
	}
}

// TestEvaluationLeavesTrainingAlone trains two models from one seed
// through the same steps at changing batch sizes; one of them also
// evaluates between the steps, at other batch sizes again. The two end
// on the same weights: an evaluation forward reshapes the scratch a
// training step uses and leaves nothing in it that a result can see.
func TestEvaluationLeavesTrainingAlone(t *testing.T) {
	ds := dataset.Generate(140, dataset.DefaultGenOptions(), rng.New(0xe7a4))
	all := dataset.Range(ds.Len())
	run := func(evaluate bool) []float32 {
		r := rng.New(0xe7a5)
		model := Small()(r)
		for i, n := range []int{32, 5, 17, 32, 1, 8} {
			cfg := TrainConfig{Epochs: 1, BatchSize: 32, LR: 0.05, Momentum: 0.9}
			Train(model, ds, all[i*10:i*10+n], cfg, r)
			if evaluate {
				Evaluate(model, ds, all[:40]) // batches of 32 and 8
				x, labels := ds.Batch(all[:[]int{100, 7, 1, 25, 33, 2}[i]])
				CountCorrectTensor(model, x, labels)
			}
		}
		return model.FlattenParams()
	}
	want, got := run(false), run(true)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("weight %d is %v after training with evaluations in between, %v without", i, got[i], want[i])
		}
	}
}
