// Package cvae implements the Conditional Variational AutoEncoder at the
// heart of FedGuard (paper §III-A, Table III), plus the unconditional VAE
// used by the Spectral baseline defense.
//
// The CVAE encoder consumes an image concatenated with a one-hot class
// label (784 + 10 = 794 inputs) and produces the mean and log-variance of
// a diagonal Gaussian posterior over a 20-dimensional latent. The decoder
// consumes a latent sample concatenated with a one-hot label (30 inputs)
// and reconstructs the 794-dimensional input. Training maximizes the ELBO
// (Eqn. 5–6): binary cross-entropy reconstruction plus KL regularization
// against the standard normal prior, via the reparameterization trick.
//
// Faithfulness note: Table III lists ReLU on the µ/log σ² heads; a ReLU
// there would confine the posterior mean to the positive orthant and the
// variance to ≥ 1, which contradicts the N(0,1) prior the paper samples
// from at generation time (Alg. 1 line 2). We use the standard linear
// heads. All layer widths and parameter counts match Table III exactly
// (encoder 334,040 / decoder 330,794 / total 664,834 parameters at paper
// scale).
package cvae

import (
	"fmt"
	"math"
	"slices"

	"fedguard/internal/loss"
	"fedguard/internal/nn"
	"fedguard/internal/opt"
	"fedguard/internal/rng"
	"fedguard/internal/tensor"
)

// Config fixes the CVAE dimensions. Input is the flattened image size;
// the encoder sees Input+Classes values and the decoder reconstructs
// Input+Classes values (the paper's 794-wide decoder output).
type Config struct {
	Input   int // flattened image dimension (784)
	Hidden  int // trunk width (400 in the paper)
	Latent  int // latent dimension (20 in the paper)
	Classes int // number of label classes (10)
}

// PaperConfig returns the exact Table III dimensions.
func PaperConfig() Config { return Config{Input: 784, Hidden: 400, Latent: 20, Classes: 10} }

// SmallConfig returns a reduced CVAE for fast CPU experiments. The tiny
// latent is deliberate: SynthDigits has little intra-class variation, and
// a narrow z forces class identity to flow through the conditioning
// label, which is exactly the property FedGuard's controllable synthesis
// needs (a 2-dim latent reaches ~0.9 class-conditional fidelity in 30
// epochs on 600 local samples, versus ~0.4 for a 20-dim latent).
func SmallConfig() Config { return Config{Input: 784, Hidden: 256, Latent: 2, Classes: 10} }

// cond returns the conditioned input width (Input + Classes).
func (c Config) cond() int { return c.Input + c.Classes }

// decIn returns the decoder input width (Latent + Classes).
func (c Config) decIn() int { return c.Latent + c.Classes }

// CVAE is a trainable conditional variational autoencoder.
type CVAE struct {
	Cfg Config

	trunk  *nn.Sequential // (B, cond) -> (B, hidden)
	muHead *nn.Linear
	lvHead *nn.Linear
	dec    *nn.Sequential // (B, decIn) -> (B, cond)
	params []nn.Param

	// Step scratch, grown on demand and reused across steps like the
	// layers' own; a smaller tail batch shrinks the views in place.
	input, eps, sigma, z, decIn *tensor.Tensor
	dOut, dMu, dLv, dh          *tensor.Tensor

	// Train's optimizer, batch buffer and shuffled order, built by the
	// first Train and reset by every later one.
	adam   *opt.Adam
	x      *tensor.Tensor
	labels []int
	order  []int
}

// New constructs a CVAE with weights initialized from r.
func New(cfg Config, r *rng.RNG) *CVAE {
	enc := nn.NewLinear(cfg.cond(), cfg.Hidden, r)
	enc.InputGradOff = true // first layer: its input gradient is never consumed
	m := &CVAE{
		Cfg:    cfg,
		trunk:  nn.NewSequential(enc, nn.NewReLU()),
		muHead: nn.NewLinear(cfg.Hidden, cfg.Latent, r),
		lvHead: nn.NewLinear(cfg.Hidden, cfg.Latent, r),
		dec:    newDecoderNet(cfg, r),
	}
	m.params = slices.Concat(m.trunk.Params(), m.muHead.Params(), m.lvHead.Params(), m.dec.Params())
	return m
}

// Reset implements nn.Resetter: it draws the weights New(m.Cfg, r)
// would, in New's layer order — trunk, µ head, log σ² head, decoder — and
// leaves r where New would. A CVAE reset from r and then trained is the
// CVAE New(m.Cfg, r) would train, bit for bit, whatever it trained on
// before (TestCVAEResetEqualsNew).
func (m *CVAE) Reset(r *rng.RNG) {
	m.trunk.Reset(r)
	m.muHead.Reset(r)
	m.lvHead.Reset(r)
	m.dec.Reset(r)
}

func newDecoderNet(cfg Config, r *rng.RNG) *nn.Sequential {
	return decoderNet(nn.NewLinear(cfg.decIn(), cfg.Hidden, r), nn.NewLinear(cfg.Hidden, cfg.cond(), r))
}

// decoderNet is the decoder architecture over its two dense layers:
// (B, decIn) -> (B, cond).
func decoderNet(hidden, out *nn.Linear) *nn.Sequential {
	return nn.NewSequential(hidden, nn.NewReLU(), out, nn.NewSigmoid())
}

// Params returns all learnable parameters (encoder trunk, both heads,
// decoder) in a stable order. The slice is the model's own; callers
// must not modify it.
func (m *CVAE) Params() []nn.Param { return m.params }

func (m *CVAE) zeroGrad() {
	for _, p := range m.Params() {
		p.Grad.Zero()
	}
}

// condConcat fills dst — grown through tensor.Ensure, so nil allocates —
// with (B, w+classes) rows of [src row | onehot(label)] for src of shape
// (B, w). Every lane is written: reused scratch needs no clearing.
func condConcat(dst, src *tensor.Tensor, labels []int, classes int) *tensor.Tensor {
	b, w := src.Dim(0), src.Dim(1)
	if len(labels) != b {
		panic(fmt.Sprintf("cvae: %d labels for batch of %d", len(labels), b))
	}
	dst = tensor.Ensure(dst, b, w+classes)
	for i := 0; i < b; i++ {
		row := dst.Data[i*(w+classes) : (i+1)*(w+classes)]
		copy(row[:w], src.Data[i*w:(i+1)*w])
		for j := w; j < len(row); j++ {
			row[j] = 0
		}
		l := labels[i]
		if l < 0 || l >= classes {
			panic(fmt.Sprintf("cvae: label %d out of range", l))
		}
		row[w+l] = 1
	}
	return dst
}

// oneHotConcat builds (B, Input+Classes) rows of [x | onehot(label)] in
// dst (see condConcat).
func (m *CVAE) oneHotConcat(dst, x *tensor.Tensor, labels []int) *tensor.Tensor {
	if x.Dim(1) != m.Cfg.Input {
		panic(fmt.Sprintf("cvae: input width %d, want %d", x.Dim(1), m.Cfg.Input))
	}
	return condConcat(dst, x, labels, m.Cfg.Classes)
}

// Step runs one training step on a flat image batch x (B, Input) with
// labels, updating parameters through optim. It returns the batch ELBO
// loss (reconstruction + KL).
func (m *CVAE) Step(x *tensor.Tensor, labels []int, optim opt.Optimizer, r *rng.RNG) float64 {
	return m.step(x, labels, optim, r, true)
}

// step is Step with the loss value optional: the gradients never depend
// on it, and it costs two logarithms per output element, so Train asks
// for it only in the epoch it reports. Without wantLoss the result is 0.
func (m *CVAE) step(x *tensor.Tensor, labels []int, optim opt.Optimizer, r *rng.RNG, wantLoss bool) float64 {
	b := x.Dim(0)
	cfg := m.Cfg
	m.zeroGrad()

	m.input = m.oneHotConcat(m.input, x, labels)
	h := m.trunk.Forward(m.input, true)
	mu := m.muHead.Forward(h, true)
	logvar := m.lvHead.Forward(h, true)

	// Reparameterization: z = mu + exp(logvar/2) * eps.
	m.eps = tensor.Ensure(m.eps, b, cfg.Latent)
	r.FillNormal(m.eps.Data, 0, 1)
	m.sigma = tensor.Ensure(m.sigma, b, cfg.Latent)
	m.z = tensor.Ensure(m.z, b, cfg.Latent)
	eps, sigma := m.eps.Data, m.sigma.Data
	for i := range sigma {
		sigma[i] = exp32(0.5 * logvar.Data[i])
		m.z.Data[i] = mu.Data[i] + sigma[i]*eps[i]
	}
	m.decIn = condConcat(m.decIn, m.z, labels, cfg.Classes)
	out := m.dec.Forward(m.decIn, true)

	m.dOut = tensor.Ensure(m.dOut, b, cfg.cond())
	loss.BinaryCrossEntropyGrad(m.dOut, out, m.input)
	m.dMu = tensor.Ensure(m.dMu, b, cfg.Latent)
	m.dLv = tensor.Ensure(m.dLv, b, cfg.Latent)
	loss.GaussianKLGrad(m.dMu, m.dLv, mu, logvar)
	var elbo float64
	if wantLoss {
		elbo = loss.BinaryCrossEntropyLoss(out, m.input) + loss.GaussianKLLoss(mu, logvar)
	}

	// Backward through the decoder into z, added onto the KL gradients.
	dDecIn := m.dec.Backward(m.dOut)
	for i := 0; i < b; i++ {
		src := dDecIn.Data[i*cfg.decIn():]
		for j := 0; j < cfg.Latent; j++ {
			dz := src[j]
			k := i*cfg.Latent + j
			m.dMu.Data[k] += dz
			// dz/dlogvar = eps * d(sigma)/dlogvar = eps * 0.5*sigma.
			m.dLv.Data[k] += dz * eps[k] * 0.5 * sigma[k]
		}
	}
	dh1 := m.muHead.Backward(m.dMu)
	dh2 := m.lvHead.Backward(m.dLv)
	m.dh = tensor.Ensure(m.dh, b, cfg.Hidden)
	tensor.Add(m.dh, dh1, dh2)
	m.trunk.Backward(m.dh)

	optim.Step()
	return elbo
}

// TrainConfig controls CVAE local training.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
}

// DefaultTrainConfig mirrors the paper's 30 client-side CVAE epochs.
func DefaultTrainConfig() TrainConfig { return TrainConfig{Epochs: 30, BatchSize: 32, LR: 1e-3} }

// Dataset is the minimal view of a training set the CVAE needs; it is
// satisfied by *dataset.Dataset.
type Dataset interface {
	// FlatBatchInto gathers the indexed examples as (B, Input) rows into
	// the caller's scratch, grown on demand, and returns it.
	FlatBatchInto(x *tensor.Tensor, labels []int, indices []int) (*tensor.Tensor, []int)
}

// Train fits the CVAE on the examples of ds selected by indices using
// Adam, returning the mean ELBO loss of the final epoch — the only epoch
// in which the loss is evaluated. The optimizer starts fresh on every
// call, as NewAdam would build it, but its moment buffers, the batch
// buffer every batch is gathered into and the shuffled order are the
// model's, kept from one call to the next.
func (m *CVAE) Train(ds Dataset, indices []int, cfg TrainConfig, r *rng.RNG) float64 {
	if m.adam == nil {
		m.adam = opt.NewAdam(m.Params(), cfg.LR)
	} else {
		m.adam.Reset(cfg.LR)
	}
	var epochLoss float64
	for e := 0; e < cfg.Epochs; e++ {
		last := e == cfg.Epochs-1
		epochLoss = 0
		m.order = append(m.order[:0], indices...)
		r.Shuffle(len(m.order), func(i, j int) { m.order[i], m.order[j] = m.order[j], m.order[i] })
		for off := 0; off < len(m.order); off += cfg.BatchSize {
			batch := m.order[off:min(off+cfg.BatchSize, len(m.order))]
			m.x, m.labels = ds.FlatBatchInto(m.x, m.labels, batch)
			epochLoss += m.step(m.x, m.labels, m.adam, r, last) * float64(len(batch))
		}
		epochLoss /= float64(len(indices))
	}
	return epochLoss
}

// DecoderParams exports the decoder weights as a flat vector — the
// payload a FedGuard client uploads alongside its classifier update.
func (m *CVAE) DecoderParams() []float32 { return m.dec.FlattenParams() }

// DecoderSize returns the decoder's parameter count for the given config
// without building a network.
func DecoderSize(cfg Config) int {
	return cfg.decIn()*cfg.Hidden + cfg.Hidden + cfg.Hidden*cfg.cond() + cfg.cond()
}

// Decoder is a standalone conditional decoder, stood up server-side
// over an uploaded parameter vector. It synthesizes validation images
// from prior samples and conditioning labels (Alg. 1 line 4).
type Decoder struct {
	Cfg Config
	net *nn.Sequential

	decIn, img *tensor.Tensor // Generate scratch, reused across calls
}

// NewDecoder returns a decoder of the given architecture that is a
// read-only view of the flat parameter vector params (the layout
// DecoderParams writes): its layers alias params, nothing is copied or
// drawn, and Generate never writes it. Standing a decoder up therefore
// costs a length check, so callers build one per use rather than keep
// one. params must not be modified while the decoder is in use; several
// decoders may share one vector and run concurrently.
func NewDecoder(cfg Config, params []float32) (*Decoder, error) {
	if want := DecoderSize(cfg); len(params) != want {
		return nil, fmt.Errorf("cvae: bad decoder payload: length %d, decoder has %d parameters", len(params), want)
	}
	in, h, out := cfg.decIn(), cfg.Hidden, cfg.cond()
	w1, rest := params[:h*in], params[h*in:]
	b1, rest := rest[:h], rest[h:]
	w2, b2 := rest[:out*h], rest[out*h:]
	net := decoderNet(nn.NewLinearView(in, h, w1, b1), nn.NewLinearView(h, out, w2, b2))
	return &Decoder{Cfg: cfg, net: net}, nil
}

// DecoderFromCVAE snapshots a trained CVAE's decoder (used in tests and
// examples that skip serialization): a view of a fresh DecoderParams
// copy, so further training of m does not show in it.
func DecoderFromCVAE(m *CVAE) *Decoder {
	d, err := NewDecoder(m.Cfg, m.DecoderParams())
	if err != nil {
		panic(err) // same config by construction
	}
	return d
}

// Generate synthesizes one image per (z, label) pair. z must be
// (B, Latent); the result is (B, Input) — the image portion of the
// decoder output, with the trailing label-reconstruction lanes dropped.
// The returned tensor is decoder-owned scratch, valid only until the
// next Generate call on this decoder; callers that keep the images
// (as FedGuard's synthesis loop does) must copy them out. A Decoder is
// not safe for concurrent Generate calls.
func (d *Decoder) Generate(z *tensor.Tensor, labels []int) *tensor.Tensor {
	b := z.Dim(0)
	cfg := d.Cfg
	if z.Dim(1) != cfg.Latent {
		panic(fmt.Sprintf("cvae: latent width %d, want %d", z.Dim(1), cfg.Latent))
	}
	d.decIn = condConcat(d.decIn, z, labels, cfg.Classes)
	out := d.net.Forward(d.decIn, false)
	d.img = tensor.Ensure(d.img, b, cfg.Input)
	for i := 0; i < b; i++ {
		copy(d.img.Data[i*cfg.Input:(i+1)*cfg.Input], out.Data[i*cfg.cond():i*cfg.cond()+cfg.Input])
	}
	return d.img
}

func exp32(x float32) float32 {
	// Clamp to keep sigma finite under adversarially large logvar.
	if x > 20 {
		x = 20
	} else if x < -20 {
		x = -20
	}
	return float32(math.Exp(float64(x)))
}
