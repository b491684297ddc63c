package fedguard

// Algorithm 1 as an executable spec: naive loops on one goroutine, and the
// one place each summation order is stated. A product element is one float32
// sum from +0 over its inner index ascending, added once per batch (per image
// for a convolution) into a gradient. It calls the program only for what is
// not arithmetic: rng streams, data, batches, placement and the attacks.

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"fedguard/internal/aggregate"
	"fedguard/internal/attack"
	"fedguard/internal/classifier"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/experiment"
	"fedguard/internal/fl"
	"fedguard/internal/rng"
)

// A net lists its layers' (outputs, fan-in), each a weight then a bias; the
// small classifier is two 5×5 conv blocks, 256→64 and 64→10 dense layers.
var smallNet = [][2]int{{8, 25}, {16, 200}, {64, 256}, {10, 64}}

// cvaeNet is the CVAE: encoder trunk, µ and log σ² heads, decoder payload.
func cvaeNet(c fl.ClientConfig) [][2]int {
	in, h, l := c.CVAE.Input+c.CVAE.Classes, c.CVAE.Hidden, c.CVAE.Latent
	return [][2]int{{h, in}, {l, h}, {l, h}, {h, l + c.CVAE.Classes}, {in, h}}
}

// draw restates the constructors' draws: weights He-uniform, biases zero.
func draw(r *rng.RNG, net [][2]int) (out []float32) {
	for _, l := range net {
		w, bound := make([]float32, l[0]*l[1]), math.Sqrt(6.0/float64(l[1]))
		r.FillUniform(w, -bound, bound)
		out = append(append(out, w...), make([]float32, l[0])...)
	}
	return out
}

// views splits a flat vector into the net's weights and biases.
func views(v []float32, net [][2]int) (out [][]float32) {
	for _, l := range net {
		out, v = append(out, v[:l[0]*l[1]], v[l[0]*l[1]:l[0]*l[1]+l[0]]), v[l[0]*l[1]+l[0]:]
	}
	return out
}

// dense is y = x·Wᵀ + b over the rows of x.
func dense(x []float32, rows int, w, bias []float32) []float32 {
	out, in, y := len(bias), len(w)/len(bias), make([]float32, rows*len(bias))
	for i := range y {
		var acc float32
		for k, v := range x[i/out*in : (i/out+1)*in] {
			acc += v * w[i%out*in+k]
		}
		y[i] = acc + bias[i%out]
	}
	return y
}

// denseBack adds dense's gradients for g into dw and db; dx is g·W.
func denseBack(x, g []float32, rows int, w, dw, db []float32) []float32 {
	out, in, dx := len(db), len(w)/len(db), make([]float32, len(x))
	sum, bsum := make([]float32, len(w)), make([]float32, out)
	for i, gv := range g { // (row, output) ascending
		for k, v := range x[i/out*in : (i/out+1)*in] {
			sum[i%out*in+k] += gv * v
		}
		for k, v := range w[i%out*in : (i%out+1)*in] {
			dx[i/out*in+k] += gv * v
		}
		bsum[i%out] += gv
	}
	for k, s := range sum {
		dw[k] += s
	}
	for j, s := range bsum {
		db[j] += s
	}
	return dx
}

// relu zeroes v where y is not positive: forward as relu(v, v), backward.
func relu(v, y []float32) {
	for i := range v {
		if !(y[i] > 0) {
			v[i] = 0
		}
	}
}

// argmax is the index of a row's first maximum.
func argmax(row []float32) int { return slices.Index(row, slices.Max(row)) }

// im2col lowers image n to its windows: a row per position, p = (channel,
// kernel row, kernel column) ascending.
func im2col(x []float32, n, inC, h, w, k int) (cols []float32) {
	for pos := 0; pos < (h-k+1)*(w-k+1); pos++ {
		for c := 0; c < inC*k; c++ { // (channel, kernel row)
			cols = append(cols, x[((n*inC+c/k)*h+pos/(w-k+1)+c%k)*w+pos%(w-k+1):][:k]...)
		}
	}
	return cols
}

// block is a conv block: the windows' product with the filters, ReLU, a 2×2
// pool won by the first strict maximum of 00, 01, 10, 11. back gives winners
// +0 + g where the ReLU fired, runs denseBack per image, col2im by position.
func block(x []float32, b, inC, h, w, k int, wt, bias []float32) (y []float32, back func(g, dw, db []float32) []float32) {
	outC, oh, ow, arg := len(bias), h-k+1, w-k+1, []int(nil) // a winner's (image, position, channel)
	for n := 0; n < b; n++ {
		conv := dense(im2col(x, n, inC, h, w, k), oh*ow, wt, bias) // (position, channel)
		relu(conv, conv)
		for o := 0; o < outC*(oh/2)*(ow/2); o++ { // (channel, pooled row, pooled column)
			co, at := o/(oh/2*(ow/2)), 2*(o%(oh/2*(ow/2))/(ow/2))*ow+2*(o%(ow/2))
			best := at + []int{0, 1, ow, ow + 1}[argmax([]float32{conv[at*outC+co], conv[(at+1)*outC+co], conv[(at+ow)*outC+co], conv[(at+ow+1)*outC+co]})]
			y, arg = append(y, conv[best*outC+co]), append(arg, (n*oh*ow+best)*outC+co)
		}
	}
	return y, func(g, dw, db []float32) []float32 {
		dConv, dx := make([]float32, b*oh*ow*outC), make([]float32, len(x))
		for i, gv := range g {
			if y[i] > 0 {
				dConv[arg[i]] += gv
			}
		}
		for n := 0; n < b; n++ {
			dCols := denseBack(im2col(x, n, inC, h, w, k), dConv[n*oh*ow*outC:(n+1)*oh*ow*outC], oh*ow, wt, dw, db)
			for i, v := range dCols { // i = (position, channel, kernel row, kernel column)
				dx[((n*inC+i/(k*k)%inC)*h+i/(inC*k*k)/ow+i/k%k)*w+i/(inC*k*k)%ow+i%k] += v
			}
		}
		return dx
	}
}

// forward runs the small classifier; back adds its gradients into g.
func forward(p [][]float32, x []float32, b int) (logits []float32, back func(d []float32, g [][]float32)) {
	a1, back1 := block(x, b, 1, 28, 28, 5, p[0], p[1])
	a2, back2 := block(a1, b, 8, 12, 12, 5, p[2], p[3])
	h := dense(a2, b, p[4], p[5])
	relu(h, h)
	return dense(h, b, p[6], p[7]), func(d []float32, g [][]float32) {
		dh := denseBack(h, d, b, p[6], g[6], g[7])
		relu(dh, h)
		back1(back2(denseBack(a2, dh, b, p[4], g[4], g[5]), g[2], g[3]), g[0], g[1])
	}
}

// accuracy is the share of images x the classifier p labels right.
func accuracy(p [][]float32, x []float32, labels []int) (hits float64) {
	logits, _ := forward(p, x, len(labels))
	for i, l := range labels {
		if argmax(logits[i*10:(i+1)*10]) == l {
			hits++
		}
	}
	return hits / float64(len(labels))
}

// batches runs fn on every batch of every epoch, as dataset.Batches draws.
func batches(ds *dataset.Dataset, idx []int, epochs, size int, r *rng.RNG, fn func(e int, x []float32, labels []int)) {
	if len(idx) <= size || len(idx)%size == 0 {
		panic("the spec needs a full batch and a tail batch")
	}
	for e := 0; e < epochs; e++ {
		for _, batch := range dataset.Batches(idx, size, r) {
			x, labels := []float32(nil), make([]int, len(batch))
			for i, j := range batch {
				x, labels[i] = append(x, ds.X[j*ds.ImageSize():(j+1)*ds.ImageSize()]...), ds.Labels[j]
			}
			fn(e, x, labels)
		}
	}
}

// clfTrain is a client's local SGD with momentum on w, from zero velocity.
func clfTrain(c fl.ClientConfig, w []float32, ds *dataset.Dataset, idx []int, r *rng.RNG) []float32 {
	p, gflat, vel := views(w, smallNet), make([]float32, len(w)), make([]float32, len(w))
	batches(ds, idx, c.Train.Epochs, c.Train.BatchSize, r, func(_ int, x []float32, labels []int) {
		clear(gflat)
		d, back := forward(p, x, len(labels))
		for i, l := range labels { // softmax cross-entropy: (p − onehot)/B
			row, sum, maxV := d[i*10:(i+1)*10], 0.0, slices.Max(d[i*10:(i+1)*10])
			for j, v := range row {
				row[j], sum = float32(math.Exp(float64(v-maxV))), sum+math.Exp(float64(v-maxV))
			}
			for j := range row {
				if row[j] *= float32(1 / sum); j == l {
					row[j] -= 1
				}
				row[j] *= float32(1 / float64(len(labels)))
			}
		}
		back(d, views(gflat, smallNet))
		for j := range w {
			vel[j] = float32(c.Train.Momentum)*vel[j] + gflat[j]
			w[j] -= float32(c.Train.LR) * vel[j]
		}
	})
	return w
}

// cat is [v | onehot(label)] per row.
func cat(v []float32, labels []int, width, classes int) (out []float32) {
	for i, l := range labels {
		out = append(append(out, v[i*width:(i+1)*width]...), make([]float32, classes)...)
		out[len(out)-classes+l] = 1
	}
	return out
}

// decode is a decoder's ReLU hidden layer and exact sigmoid output.
func decode(d [][]float32, in []float32, b int) (h, out []float32) {
	h = dense(in, b, d[0], d[1])
	relu(h, h)
	out = dense(h, b, d[2], d[3])
	for i, x := range out {
		out[i] = float32(1 / (1 + math.Exp(-float64(x))))
	}
	return h, out
}

// cvaeTrain is cvae.Train on w: Adam (float32 moments, float64 step) from zero.
func cvaeTrain(c fl.ClientConfig, w []float32, ds *dataset.Dataset, idx []int, r *rng.RNG) ([]float32, float64) {
	L, C, p, gflat, b1, b2 := c.CVAE.Latent, c.CVAE.Classes, views(w, cvaeNet(c)), make([]float32, len(w)), float32(0.9), float32(0.999)
	m, v, g, step, loss := make([]float32, len(w)), make([]float32, len(w)), views(gflat, cvaeNet(c)), 0, 0.0
	batches(ds, idx, c.CVAETrain.Epochs, c.CVAETrain.BatchSize, r, func(e int, x []float32, labels []int) {
		b, invB := len(labels), float32(1/float64(len(labels)))
		clear(gflat)
		in := cat(x, labels, c.CVAE.Input, C)
		h := dense(in, b, p[0], p[1])
		relu(h, h)
		mu, lv, eps, sigma, z := dense(h, b, p[2], p[3]), dense(h, b, p[4], p[5]), make([]float32, b*L), make([]float32, b*L), make([]float32, b*L)
		r.FillNormal(eps, 0, 1)
		for i := range z {
			sigma[i] = float32(math.Exp(float64(min(max(0.5*lv[i], -20), 20))))
			z[i] = mu[i] + sigma[i]*eps[i]
		}
		dIn := cat(z, labels, L, C)
		hd, out := decode(p[6:], dIn, b)
		// BCE through the sigmoid; a 0 or 1 target's other log adds ±0, no bit.
		dOut, elbo, kl := make([]float32, len(out)), 0.0, 0.0
		for i, o := range out {
			t, pc := in[i], min(max(float64(o), 1e-7), 1-1e-7)
			dOut[i] = float32((pc-float64(t))/(pc*(1-pc))) * invB * o * (1 - o)
			elbo -= float64(t)*math.Log(pc) + float64(1-t)*math.Log(1-pc)
		}
		dhd := denseBack(hd, dOut, b, p[8], g[8], g[9])
		relu(dhd, hd)
		dDec, dMu, dLv := denseBack(dIn, dhd, b, p[6], g[6], g[7]), make([]float32, b*L), make([]float32, b*L)
		for k := range dMu { // the KL term's gradients, plus the decoder's through z
			dz := dDec[k/L*(L+C)+k%L]
			dMu[k] = mu[k]*invB + dz
			dLv[k] = float32(-0.5*(1-math.Exp(float64(lv[k]))))*invB + dz*eps[k]*0.5*sigma[k]
			kl += -0.5 * (1 + float64(lv[k]) - float64(mu[k])*float64(mu[k]) - math.Exp(float64(lv[k])))
		}
		if e == c.CVAETrain.Epochs-1 {
			loss += (elbo/float64(b) + kl/float64(b)) * float64(b)
		}
		dh := denseBack(h, dMu, b, p[2], g[2], g[3])
		for i, d := range denseBack(h, dLv, b, p[4], g[4], g[5]) {
			dh[i] += d
		}
		relu(dh, h)
		denseBack(in, dh, b, p[0], g[0], g[1])
		step++
		lr := c.CVAETrain.LR * math.Sqrt(1-math.Pow(0.999, float64(step))) / (1 - math.Pow(0.9, float64(step)))
		for j, gj := range gflat {
			m[j] = b1*m[j] + (1-b1)*gj
			v[j] = b2*v[j] + (1-b2)*gj*gj
			w[j] -= float32(lr * float64(m[j]) / (math.Sqrt(float64(v[j])) + 1e-8))
		}
	})
	return w, loss / float64(len(idx))
}

// fedAvg weighs by partition size, summing in float64 in update order.
func fedAvg(ups []fl.Update) []float32 {
	total, acc, out := 0.0, make([]float64, len(ups[0].Weights)), make([]float32, len(ups[0].Weights))
	for _, u := range ups {
		total += float64(u.NumSamples)
		for i, v := range u.Weights {
			acc[i] += float64(u.NumSamples) * float64(v)
		}
	}
	for i, a := range acc {
		out[i] = float32(a * (1 / total))
	}
	return out
}

// distSq is Σ(a−b)² over 2048-wide blocks, sixteen lanes each, fixed fold.
func distSq(a, b []float32) (total float64) {
	for lo := 0; lo < len(a); lo += 2048 {
		hi, lane, tail := min(lo+2048, len(a)), [16]float64{}, 0.0
		for i := lo; i < hi; i++ {
			if d := float64(a[i]) - float64(b[i]); i < lo+(hi-lo)&^15 {
				lane[(i-lo)%16] += d * d
			} else {
				tail += d * d
			}
		}
		u := func(l int) float64 { return (lane[l] + lane[l+4]) + (lane[l+8] + lane[l+12]) }
		total += (u(0) + u(2)) + (u(1) + u(3)) + tail
	}
	return total
}

// krum scores each update by its n−f−2 nearest squared distances, f = (n−1)/2.
func krum(ups []fl.Update) (scores []float64) {
	for i := range ups {
		var dists []float64
		for j := range ups {
			if j != i {
				dists = append(dists, distSq(ups[min(i, j)].Weights, ups[max(i, j)].Weights))
			}
		}
		slices.Sort(dists)
		scores = append(scores, 0)
		for _, d := range dists[:min(max(len(ups)-(len(ups)-1)/2-2, 1), len(ups)-1)] {
			scores[i] += d
		}
	}
	return scores
}

// audit is FedGuard's round (Alg. 1 lines 1–7): t latents, then t labels,
// from r; sample i from decoder i mod m; updates at or above the mean kept.
func audit(c fl.ClientConfig, t int, r *rng.RNG, ups []fl.Update, malicious map[int]bool) (mean float64, decisions []fl.Decision, agg []float32) {
	z, labels, imgs := make([]float32, t*c.CVAE.Latent), make([]int, t), []float32(nil)
	r.FillNormal(z, 0, 1)
	for i := range labels {
		labels[i] = r.CategoricalUniform(c.CVAE.Classes)
	}
	for i, l := range labels {
		_, o := decode(views(ups[i%len(ups)].Decoder, cvaeNet(c))[6:], cat(z[i*c.CVAE.Latent:(i+1)*c.CVAE.Latent], []int{l}, c.CVAE.Latent, c.CVAE.Classes), 1)
		imgs = append(imgs, o[:c.CVAE.Input]...)
	}
	accs, kept := make([]float64, len(ups)), []fl.Update(nil)
	for j, u := range ups {
		accs[j] = accuracy(views(u.Weights, smallNet), imgs, labels)
		mean += accs[j]
	}
	mean /= float64(len(ups))
	for j, u := range ups {
		if decisions = append(decisions, fl.Decision{ClientID: u.ClientID, Score: accs[j], Kept: accs[j] >= mean, Malicious: malicious[u.ClientID]}); accs[j] >= mean {
			kept = append(kept, u)
		}
	}
	return mean, decisions, fedAvg(kept)
}

// specRun is Alg. 1's server loop: the final ψ, records and last updates.
func specRun(s experiment.Setup, sc experiment.Scenario, strategy string) (global []float32, recs []fl.RoundRecord, ups []fl.Update) {
	cfg := s.Federation(sc)
	train, test, _ := s.Data()
	att, _ := experiment.NewAttack(sc.Attack, cfg.Seed)
	malicious, parts := fl.MaliciousPlacement(cfg), fl.Partition(train, cfg)
	server, global := rng.New(rng.DeriveSeed(cfg.Seed, "server", 0)), draw(rng.New(rng.DeriveSeed(cfg.Seed, "init", 0)), smallNet)
	clients, cvaes := make([]*rng.RNG, cfg.NumClients), make([][]float32, cfg.NumClients)
	for id := range clients {
		clients[id] = rng.New(fl.ClientRNGSeed(cfg.Seed, id))
	}
	for round := 1; round <= cfg.Rounds; round++ {
		sampled, roundRNG := server.Sample(cfg.NumClients, cfg.PerRound), server.Split()
		ups = nil
		for _, id := range sampled {
			r, a := clients[id], map[bool]attack.Attack{false: attack.None{}, true: att}[malicious[id]]
			ds, idx := a.PoisonData(train, parts[id])
			draw(r, smallNet) // the borrowed model's Reset, then overwritten by ψ
			w := clfTrain(cfg.Client, slices.Clone(global), ds, idx, r)
			if a.PoisonModel(w, r); strategy == "FedGuard" && cvaes[id] == nil { // a CVAE trains once
				cvaes[id], _ = cvaeTrain(cfg.Client, draw(r, cvaeNet(cfg.Client)), ds, idx, r)
			}
			ups = append(ups, fl.Update{ClientID: id, Weights: w, NumSamples: len(parts[id]), Decoder: cvaes[id]})
		}
		rec, agg := fl.RoundRecord{Round: round, Report: map[string]float64{}}, fedAvg(ups)
		switch strategy {
		case "Krum": // the first lowest score
			scores := krum(ups)
			k := ups[slices.Index(scores, slices.Min(scores))]
			agg, rec.Report[fl.ReportKrumSelected] = k.Weights, float64(k.ClientID)
		case "FedGuard":
			rec.Threshold, rec.Decisions, agg = audit(cfg.Client, s.Samples, roundRNG.Clone(), ups, malicious)
		}
		for i := range global {
			global[i] += float32(cfg.ServerLR) * (agg[i] - global[i])
		}
		n := min(cfg.TestSubset, test.Len())
		rec.TestAccuracy = accuracy(views(global, smallNet), test.X[:n*test.ImageSize()], test.Labels[:n])
		recs = append(recs, rec)
	}
	return global, recs, ups
}

// TestOracle holds the program to the spec bit for bit: a small two-round
// label-flip-30 federation per strategy, and cvae.Train's decoder and loss.
func TestOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three federations and their spec")
	}
	s := experiment.MustSetup(experiment.PresetQuick)
	s.Arch, s.ArchName, s.Rounds, s.LastN, s.Train.Epochs, s.CVAETrain.Epochs, s.Samples, s.TrainSize, s.TestSize, s.TestSubset = classifier.Small(), "small", 2, 1, 1, 1, 40, 800, 100, 100
	sc, _ := experiment.ScenarioByID("label-flip-30")
	for _, name := range []string{"FedAvg", "Krum", "FedGuard"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := experiment.Run(s, sc, name, experiment.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want, recs, ups := specRun(s, sc, name)
			var got []fl.RoundRecord
			for _, r := range res.History.Rounds {
				got = append(got, fl.RoundRecord{Round: r.Round, TestAccuracy: r.TestAccuracy, Threshold: r.Threshold, Decisions: r.Decisions, Report: r.Report})
			}
			if !reflect.DeepEqual(got, recs) || !same(res.History.FinalWeights, want) {
				t.Errorf("the program's rounds %+v end on other weights than, or differ from, the spec's %+v", got, recs)
			}
			scores, _ := aggregate.KrumScores(ups, (len(ups)-1)/2) // the spec's updates, scored by the program
			switch {
			case name == "Krum" && !reflect.DeepEqual(scores, krum(ups)):
				t.Errorf("Krum scores %v, the spec's %v", scores, krum(ups))
			case name == "FedGuard" && !slices.ContainsFunc(recs[0].Decisions, func(d fl.Decision) bool { return !d.Kept }):
				t.Error("round 1 kept every update: the filter is not in the loop")
			}
		})
	}
	t.Run("CVAETrain", func(t *testing.T) {
		c, r := fl.ClientConfig{CVAE: s.CVAE, CVAETrain: cvae.TrainConfig{Epochs: 2, BatchSize: 32, LR: 1e-3}}, rng.New(0x90de)
		ds := dataset.Generate(40, dataset.DefaultGenOptions(), r) // a full batch and an 8-row tail
		specR, m := r.Clone(), cvae.New(c.CVAE, r)
		loss := m.Train(ds, dataset.Range(ds.Len()), c.CVAETrain, r)
		w, specLoss := cvaeTrain(c, draw(specR, cvaeNet(c)), ds, dataset.Range(ds.Len()), specR)
		if !same(m.DecoderParams(), w[len(w)-cvae.DecoderSize(c.CVAE):]) || math.Float64bits(loss) != math.Float64bits(specLoss) || r.State() != specR.State() {
			t.Errorf("Train returned %v (stream %+v) and its decoder, the spec %v (stream %+v) and another", loss, r.State(), specLoss, specR.State())
		}
	})
}

// same reports whether a and b hold the same bit patterns.
func same(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}
