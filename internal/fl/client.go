package fl

import (
	"fedguard/internal/attack"
	"fedguard/internal/classifier"
	"fedguard/internal/codec"
	"fedguard/internal/cvae"
	"fedguard/internal/dataset"
	"fedguard/internal/rng"
	"fedguard/internal/telemetry"
)

// ClientConfig bundles the per-client training hyperparameters shared by
// all clients of a federation.
type ClientConfig struct {
	Arch       classifier.Arch
	Train      classifier.TrainConfig
	CVAE       cvae.Config
	CVAETrain  cvae.TrainConfig
	NumClasses int
}

// Client is one federated participant: it owns a private partition of
// the dataset, trains the shared classifier architecture locally each
// round on a worker borrowed from its process's set for the whole round,
// and — when the strategy requires it — trains a CVAE once on its
// (possibly poisoned) local data and re-uploads the decoder every round
// (paper footnote 5: the partition is static, so the CVAE is trained a
// single time).
type Client struct {
	ID int

	ds      *dataset.Dataset
	indices []int
	cfg     ClientConfig
	att     attack.Attack
	rng     *rng.RNG
	// workers is where the client borrows its classifier each round: the
	// federation's or the process's shared set, or a private one.
	workers *classifier.Set

	// Poisoned training view, materialized lazily.
	viewReady   bool
	viewDS      *dataset.Dataset
	viewIndices []int

	// Cached CVAE decoder payload, its content hash (computed once at
	// training, 0 = none yet) and the classes it saw. The payload is
	// never written in place: updates and checkpoints alias it.
	decoder        []float32
	decoderHash    uint64
	decoderClasses []int
}

// NewClient builds a client over the partition ds[indices]. att may be
// attack.None{} for benign clients; r must be a private stream. The
// client trains on a worker set of its own, which builds one model, until
// UseWorkers gives it a shared one.
func NewClient(id int, ds *dataset.Dataset, indices []int, cfg ClientConfig, att attack.Attack, r *rng.RNG) *Client {
	if att == nil {
		att = attack.None{}
	}
	return &Client{ID: id, ds: ds, indices: indices, cfg: cfg, att: att, rng: r,
		workers: classifier.NewSet(cfg.Arch)}
}

// UseWorkers makes the client borrow its classifier from set — of the
// client's architecture — instead of its private one, so every client
// sharing set shares its models, and at most set.Size() of them run a
// round at once. Call before the first round.
func (c *Client) UseWorkers(set *classifier.Set) { c.workers = set }

// NumParams returns the parameter count of the client's architecture:
// the length a global handed to RunRound must have.
func (c *Client) NumParams() int { return c.workers.NumParams() }

func (c *Client) view() (*dataset.Dataset, []int) {
	if !c.viewReady {
		c.viewDS, c.viewIndices = c.att.PoisonData(c.ds, c.indices)
		c.viewReady = true
	}
	return c.viewDS, c.viewIndices
}

// cvaeView returns the training view for the client's CVAE. Attacks
// that poison the classifier's and the generator's data differently (the
// decoder-forging adaptive attack) implement attack.CVAEDataAware and
// get a dedicated view; every other attack trains both models on the
// same poisoned view, the paper's behaviour.
func (c *Client) cvaeView() (*dataset.Dataset, []int) {
	if ca, ok := c.att.(attack.CVAEDataAware); ok {
		return ca.PoisonCVAEData(c.ds, c.indices)
	}
	return c.view()
}

// RunRound executes one federated round for this client: load the global
// parameters, train locally, apply the model-poisoning hook, and return
// the update. When needDecoder is set the client also attaches its CVAE
// decoder payload, training the CVAE first if this is its first
// participation.
func (c *Client) RunRound(global []float32, needDecoder bool) Update {
	return c.RunRoundSpan(global, needDecoder, nil)
}

// RunRoundSpan is RunRound with an explicit trace parent: the client's
// train/cvae_train phases become children of parent when the run is
// traced (in-process runs hand in the per-client round span; the
// networked client parents onto the span received over the wire). A nil
// parent times nothing.
//
// The client borrows its worker first and returns it last: training,
// the model-poisoning hook and a first participation's CVAE training all
// run under one borrow, so the set's size bounds whole client rounds in
// any process, however many clients it serves.
func (c *Client) RunRoundSpan(global []float32, needDecoder bool, parent *telemetry.Span) Update {
	w := c.workers.Get()
	defer c.workers.Put(w)
	ds, indices := c.view()

	weights := c.train(w, ds, indices, global, parent)
	if ga, ok := c.att.(attack.GlobalAware); ok {
		ga.PoisonModelWithGlobal(weights, global, c.rng)
	} else {
		c.att.PoisonModel(weights, c.rng)
	}

	u := Update{ClientID: c.ID, Weights: weights, NumSamples: len(indices)}
	if needDecoder {
		u.Decoder, u.DecoderClasses = c.decoderPayload(w, parent)
	}
	return u
}

// train is the round's local training on the borrowed worker w: reset
// from the client's stream and loaded with global it is the model this
// round would otherwise build, and the stream ends where building would
// leave it. The train phase starts once the worker is borrowed — waiting
// for one is not training.
func (c *Client) train(w *classifier.Worker, ds *dataset.Dataset, indices []int, global []float32, parent *telemetry.Span) []float32 {
	defer parent.Child("client.train").End()
	w.Model.Reset(c.rng)
	if err := w.Model.LoadParams(global); err != nil {
		panic(err) // architecture mismatch is a programming error
	}
	w.Train(ds, indices, c.cfg.Train, c.rng)
	return w.Model.FlattenParams()
}

// decoderPayload trains the client's CVAE on first use, returning the
// cached flat decoder vector and the classes it was trained on. The
// CVAE is the borrowed worker's, drawn from the client's stream as
// cvae.New would draw it; the client keeps only the decoder copy.
func (c *Client) decoderPayload(w *classifier.Worker, parent *telemetry.Span) ([]float32, []int) {
	if c.decoder == nil {
		defer parent.Child("client.cvae_train").End()
		ds, indices := c.cvaeView()
		m := w.CVAE(c.cfg.CVAE, c.rng)
		m.Train(ds, indices, c.cfg.CVAETrain, c.rng)
		c.decoder = m.DecoderParams()
		c.decoderHash = codec.Hash(c.decoder)
		c.decoderClasses = classesOf(ds, indices, c.cfg.CVAE.Classes)
	}
	return c.decoder, c.decoderClasses
}

// classesOf returns the sorted distinct labels among ds[indices].
func classesOf(ds *dataset.Dataset, indices []int, numClasses int) []int {
	seen := make([]bool, numClasses)
	for _, i := range indices {
		seen[ds.Labels[i]] = true
	}
	var out []int
	for c, ok := range seen {
		if ok {
			out = append(out, c)
		}
	}
	return out
}
