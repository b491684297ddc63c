package defense

import (
	"slices"
	"testing"

	"fedguard/internal/aggregate"
	"fedguard/internal/classifier"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/fl"
	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// referenceSet and referenceAggregate are Alg. 1 lines 1–7 in a straight
// line on one goroutine: the oracle the audit plan is held to. They share
// nothing with the plan but cvae, classifier and aggregate — the draw
// order and the assignment are restated here, not called.

// referenceSet draws and synthesizes the round's validation set (lines
// 2–4), rows in sample order.
func referenceSet(t *testing.T, g *FedGuard, updates []fl.Update, seed uint64) (*tensor.Tensor, []int) {
	t.Helper()
	r, m, cfg := rng.New(seed), len(updates), g.CVAECfg
	n := g.Samples
	if n <= 0 {
		n = 2 * m
	}
	z, labels := tensor.New(n, cfg.Latent), make([]int, n)
	r.FillNormal(z.Data, 0, 1)
	for i := range labels {
		labels[i] = r.CategoricalUniform(cfg.Classes)
	}
	turn := make([]int, cfg.Classes) // per class, whose turn among its claimants
	// Per update's decoder: its latents, its labels, and which samples
	// they are.
	zs, ys, rows := make([][]float32, m), make([][]int, m), make([][]int, m)
	for i, y := range labels {
		k := i % m
		var claimants []int
		for j, u := range updates {
			if g.UseDecoderClasses && (u.DecoderClasses == nil || slices.Contains(u.DecoderClasses, y)) {
				claimants = append(claimants, j)
			}
		}
		if len(claimants) > 0 {
			k = claimants[turn[y]%len(claimants)]
			turn[y]++
		}
		zs[k], ys[k], rows[k] = append(zs[k], z.Data[i*cfg.Latent:(i+1)*cfg.Latent]...), append(ys[k], y), append(rows[k], i)
	}
	x := tensor.New(n, 1, dataset.ImageH, dataset.ImageW)
	for k, idxs := range rows {
		if len(idxs) == 0 {
			continue
		}
		dec, err := cvae.NewDecoder(cfg, updates[k].Decoder)
		if err != nil {
			t.Fatal(err)
		}
		imgs := dec.Generate(tensor.FromSlice(zs[k], len(idxs), cfg.Latent), ys[k])
		for a, i := range idxs {
			copy(x.Data[i*cfg.Input:(i+1)*cfg.Input], imgs.Data[a*cfg.Input:(a+1)*cfg.Input])
		}
	}
	return x, labels
}

// referenceAggregate scores every update on the whole set, filters at the
// mean and averages the survivors (lines 5–7).
func referenceAggregate(t *testing.T, g *FedGuard, updates []fl.Update, seed uint64) outcome {
	t.Helper()
	x, labels := referenceSet(t, g, updates, seed)
	model, accs, mean := g.Arch(rng.New(1)), make([]float64, len(updates)), 0.0
	for j, u := range updates {
		if err := model.LoadParams(u.Weights); err != nil {
			t.Fatal(err)
		}
		accs[j] = float64(classifier.CountCorrectTensor(model, x, labels)) / float64(len(labels))
		mean += accs[j]
	}
	mean /= float64(len(updates))
	var kept []fl.Update
	decisions := make([]fl.Decision, len(updates))
	for j, u := range updates {
		decisions[j] = fl.Decision{ClientID: u.ClientID, Score: accs[j], Kept: accs[j] >= mean}
		if accs[j] >= mean {
			kept = append(kept, u)
		}
	}
	out, err := aggregate.WeightedMean(kept)
	if err != nil {
		t.Fatal(err)
	}
	return outcome{out, mean, decisions}
}
