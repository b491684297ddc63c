// CVAE generation: FedGuard's controllable validation-data synthesis,
// visualized.
//
// Trains a client-side CVAE on SynthDigits, then conditions its decoder
// on each class label with fresh prior samples — exactly what the
// FedGuard server does every round (Alg. 1 lines 2–4) — and prints the
// real and synthesized digits side by side as ASCII art.
//
//	go run ./examples/cvae_generation
package main

import (
	"fmt"
	"strings"

	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

func main() {
	r := rng.New(2024)
	train := dataset.Generate(800, dataset.DefaultGenOptions(), r)

	cfg := cvae.SmallConfig()
	model := cvae.New(cfg, r)
	params := 0
	for _, p := range model.Params() {
		params += p.Value.Len()
	}
	fmt.Printf("training a %d-parameter CVAE (hidden %d, latent %d) for 30 epochs on %d digits...\n",
		params, cfg.Hidden, cfg.Latent, train.Len())
	loss := model.Train(train, dataset.Range(train.Len()),
		cvae.TrainConfig{Epochs: 30, BatchSize: 32, LR: 1e-3}, r)
	fmt.Printf("final ELBO loss: %.1f\n\n", loss)

	// The server only ever sees the decoder — snapshot it the way a
	// FedGuard client would upload it.
	dec := cvae.DecoderFromCVAE(model)
	fmt.Printf("decoder payload: %d parameters (%.2f MB at float32)\n\n",
		len(model.DecoderParams()), float64(len(model.DecoderParams()))*4/(1<<20))

	for class := 0; class < dataset.NumClasses; class++ {
		// One real example of the class for reference.
		var real []float32
		for i := 0; i < train.Len(); i++ {
			if train.Labels[i] == class {
				real = train.X[i*784 : (i+1)*784]
				break
			}
		}
		// Two conditional generations from prior samples.
		z := tensor.New(2, cfg.Latent)
		r.FillNormal(z.Data, 0, 1)
		gen := dec.Generate(z, []int{class, class})

		fmt.Printf("class %d: real | generated | generated\n", class)
		printSideBySide(
			asciiArt(real, 28, 28),
			asciiArt(gen.Data[:784], 28, 28),
			asciiArt(gen.Data[784:], 28, 28),
		)
	}
}

// asciiArt renders image data (h*w floats in [0,1]) as text for
// terminal inspection, using a 5-level density ramp.
func asciiArt(img []float32, h, w int) string {
	ramp := []byte(" .:*#")
	out := make([]byte, 0, h*(w+1))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := img[y*w+x]
			lvl := int(v * float32(len(ramp)))
			if lvl >= len(ramp) {
				lvl = len(ramp) - 1
			}
			if lvl < 0 {
				lvl = 0
			}
			out = append(out, ramp[lvl])
		}
		out = append(out, '\n')
	}
	return string(out)
}

func printSideBySide(arts ...string) {
	split := make([][]string, len(arts))
	for i, a := range arts {
		split[i] = strings.Split(strings.TrimRight(a, "\n"), "\n")
	}
	for row := 0; row < len(split[0]); row++ {
		parts := make([]string, len(arts))
		for i := range arts {
			parts[i] = split[i][row]
		}
		fmt.Println(strings.Join(parts, "  |  "))
	}
	fmt.Println()
}
