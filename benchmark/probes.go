package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fedguard/internal/aggregate"
	"fedguard/internal/attack"
	"fedguard/internal/classifier"
	"fedguard/internal/codec"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/defense"
	"fedguard/internal/experiment"
	"fedguard/internal/fl"
	"fedguard/internal/persist"
	"fedguard/internal/rng"
	"fedguard/internal/tensor"
	"fedguard/internal/wire"
)

// Probes are timed calls into one layer's public functions, on inputs
// captured from the run (the last round's cohort) or generated at the
// workload's shapes. They run after the federation, so they compete with
// nothing; each reports the median of its repetitions.

// timeIt runs f at least three times and until budget is spent (at most
// fifty times), and returns the median duration in seconds.
func timeIt(budget time.Duration, f func()) float64 {
	var d []float64
	begin := time.Now()
	for len(d) < 3 || (time.Since(begin) < budget && len(d) < 50) {
		start := time.Now()
		f()
		d = append(d, time.Since(start).Seconds())
	}
	return median(d)
}

// probeBudget is what one probe (and the calibration spin) may spend
// repeating itself; a smoke run takes the minimum three repetitions.
func probeBudget(smoke bool) time.Duration {
	if smoke {
		return 0
	}
	return 150 * time.Millisecond
}

// calibrate times a fixed matrix product: work that depends on the host
// and the kernels but on nothing the workloads do.
func calibrate(budget time.Duration) float64 {
	const n = 256
	a, b, dst := tensor.New(n, n), tensor.New(n, n), tensor.New(n, n)
	rng.New(1).FillNormal(a.Data, 0, 1)
	rng.New(2).FillNormal(b.Data, 0, 1)
	return timeIt(budget, func() {
		for i := 0; i < 8; i++ {
			tensor.MatMul(dst, a, b)
		}
	})
}

// medianPartition returns the partition whose size is the median.
func medianPartition(parts [][]int) []int {
	order := make([]int, len(parts))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return len(parts[order[a]]) < len(parts[order[b]]) })
	return parts[order[len(order)/2]]
}

// runProbes fills m with every probe metric the pass's inputs allow.
func runProbes(p *pass, outDir string, budget time.Duration, m map[string]float64) error {
	in := p.in
	setup := in.setup
	seed := setup.Seed
	r := rng.New(rng.DeriveSeed(seed, "probe", 0))

	// dataset
	m["dataset.generate_s"] = timeIt(budget, func() {
		dataset.Generate(setup.TrainSize, dataset.DefaultGenOptions(), rng.New(in.trainSeed))
	})
	var parts [][]int
	m["dataset.partition_s"] = timeIt(budget, func() { parts = fl.Partition(in.train, in.cfg) })
	part := medianPartition(parts)

	// classifier
	model := setup.Arch(r)
	tcfg := setup.Train
	tcfg.Epochs = 1
	m["classifier.train_epoch_s"] = timeIt(budget, func() { classifier.Train(model, in.train, part, tcfg, r) })
	testIdx := dataset.Range(in.test.Len())
	if setup.TestSubset > 0 && setup.TestSubset < len(testIdx) {
		testIdx = testIdx[:setup.TestSubset]
	}
	m["classifier.evaluate_s"] = timeIt(budget, func() { classifier.Evaluate(model, in.test, testIdx) })
	samples := setup.Samples
	if samples <= 0 {
		samples = 2 * setup.PerRound
	}
	if samples > in.test.Len() {
		samples = in.test.Len()
	}
	x, labels := in.test.Batch(dataset.Range(samples))
	m["classifier.count_correct_s"] = timeIt(budget, func() { classifier.CountCorrectTensor(model, x, labels) })

	// cvae
	ccfg := setup.CVAETrain
	ccfg.Epochs = 1
	gen := cvae.New(setup.CVAE, r)
	m["cvae.train_epoch_s"] = timeIt(budget, func() { gen.Train(in.train, part, ccfg, r) })
	dec := cvae.DecoderFromCVAE(gen)
	z := tensor.New(samples, setup.CVAE.Latent)
	r.FillNormal(z.Data, 0, 1)
	m["cvae.generate_s"] = timeIt(budget, func() { dec.Generate(z, labels) })

	// one client's round, first and second call
	global := fl.InitialGlobal(in.cfg)
	needDecoders := p.seam != nil && len(p.seam.last.updates) > 0 && len(p.seam.last.updates[0].Decoder) > 0
	var cold, warm []float64
	for i := 0; i < 3; i++ {
		c := fl.NewClient(0, in.train, part, in.cfg.Client, attack.None{}, rng.New(uint64(i)+1))
		start := time.Now()
		c.RunRound(global, needDecoders)
		cold = append(cold, time.Since(start).Seconds())
		start = time.Now()
		c.RunRound(global, needDecoders)
		warm = append(warm, time.Since(start).Seconds())
	}
	m["fl.client_round_cold_s"] = median(cold)
	m["fl.client_round_warm_s"] = median(warm)

	if p.seam == nil || len(p.seam.last.updates) == 0 {
		return nil
	}
	co := p.seam.last

	// aggregate
	m["aggregate.weighted_mean_s"] = timeIt(budget, func() { aggregate.WeightedMean(co.updates) })
	m["aggregate.krum_s"] = timeIt(budget, func() { aggregate.Krum(co.updates, (len(co.updates)-1)/2) })

	// defense, when the cohort carries decoders
	if needDecoders {
		if err := probeDefense(setup, co, budget, m); err != nil {
			return err
		}
	}

	// wire and codec on one update of the cohort
	u := co.updates[0]
	classes := make([]uint32, len(u.DecoderClasses))
	for i, c := range u.DecoderClasses {
		classes[i] = uint32(c)
	}
	raw := &wire.Update{Round: uint32(co.round), ClientID: uint32(u.ClientID), NumSamples: uint32(u.NumSamples),
		Weights: u.Weights, Decoder: u.Decoder, DecoderClasses: classes}
	m["wire.write_update_raw_s"] = timeIt(budget, func() { wire.WriteMessage(io.Discard, raw) })
	var buf bytes.Buffer
	if err := wire.WriteMessage(&buf, raw); err != nil {
		return err
	}
	m["wire.read_update_raw_s"] = timeIt(budget, func() { wire.ReadMessage(bytes.NewReader(buf.Bytes())) })

	var delta []byte
	var err error
	m["codec.encode_delta_s"] = timeIt(budget, func() { delta, err = codec.EncodeDelta(u.Weights, co.global) })
	if err != nil {
		return err
	}
	m["codec.decode_delta_s"] = timeIt(budget, func() { codec.DecodeDelta(delta, co.global) })
	m["codec.hash_s"] = timeIt(budget, func() { codec.Hash(u.Weights) })
	m["codec.delta_ratio"] = float64(len(delta)) / float64(4*len(u.Weights))
	// The decoder travels as a hash-only token, as it does in warm rounds
	// once the server holds it.
	compressed := func(weights []byte) *wire.UpdateC {
		return &wire.UpdateC{Round: raw.Round, ClientID: raw.ClientID, NumSamples: raw.NumSamples,
			Encoding: wire.EncDelta, NumParams: uint32(len(u.Weights)), Weights: weights,
			DecoderHash: codec.Hash(u.Decoder), NumDecoderParams: uint32(len(u.Decoder)), DecoderClasses: classes}
	}
	m["wire.write_update_codec_s"] = timeIt(budget, func() {
		d, _ := codec.EncodeDelta(u.Weights, co.global)
		wire.WriteMessage(io.Discard, compressed(d))
	})
	buf.Reset()
	if err := wire.WriteMessage(&buf, compressed(delta)); err != nil {
		return err
	}
	m["wire.read_update_codec_s"] = timeIt(budget, func() {
		msg, err := wire.ReadMessage(bytes.NewReader(buf.Bytes()))
		if err == nil {
			codec.DecodeDelta(msg.(*wire.UpdateC).Weights, co.global)
		}
	})

	// persist: the run's own checkpoint when it wrote one, else the state
	// an in-process checkpoint of the last round would carry.
	ck := &fl.Checkpoint{Round: co.round, Seed: seed, Strategy: "probe", Global: co.global,
		ServerRNG: rng.New(seed).State(), Rounds: p.Rounds}
	if p.checkpointDir != "" {
		if ck, err = persist.LoadCheckpoint(p.checkpointDir); err != nil {
			return fmt.Errorf("loading the run's checkpoint: %w", err)
		}
	}
	var size int64
	m["persist.write_checkpoint_s"] = timeIt(budget, func() { size, err = persist.WriteCheckpoint(io.Discard, ck) })
	if err != nil {
		return err
	}
	m["persist.checkpoint_bytes"] = float64(size)
	dir := filepath.Join(outDir, "ckpt-probe")
	defer os.RemoveAll(dir)
	m["persist.save_checkpoint_s"] = timeIt(budget, func() { _, _, err = persist.SaveCheckpoint(dir, ck) })
	return err
}

// probeDefense times FedGuard's two halves on the cohort: synthesis, and
// the audit as the whole Aggregate minus synthesis.
func probeDefense(setup experiment.Setup, co cohort, budget time.Duration, m map[string]float64) error {
	strat, err := experiment.NewStrategy("FedGuard", setup)
	if err != nil {
		return err
	}
	guard, ok := strat.(*defense.FedGuard)
	if !ok {
		return fmt.Errorf("experiment.NewStrategy(FedGuard) returned %T", strat)
	}
	ctx := func() *fl.RoundContext {
		return &fl.RoundContext{Round: co.round, Global: co.global, Updates: co.updates,
			RNG: rng.New(setup.Seed), Report: map[string]float64{}}
	}
	var x *tensor.Tensor
	synth := timeIt(budget, func() { x, _, err = guard.Synthesize(ctx()) })
	if err != nil {
		return err
	}
	whole := timeIt(2*budget, func() { _, err = guard.Aggregate(ctx()) })
	if err != nil {
		return err
	}
	m["defense.synthesize_s"] = synth
	m["defense.audit_s"] = whole - synth
	m["defense.synth_samples"] = float64(x.Dim(0))
	return nil
}
